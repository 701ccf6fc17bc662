"""Command-line interface.

Subcommands:

* ``generate`` — write a synthetic or web-tables-like collection to a file;
* ``discover`` — interactive set discovery over a collection file (answer
  y/n/? on the terminal) or a simulated run against a named target set;
* ``experiment`` — run one of the paper's experiments and print its
  tables (``--list`` shows the ids);
* ``baseball`` — end-to-end query discovery for one target query T1-T7;
* ``serve-demo`` — drive the asyncio serving stack
  (:class:`repro.serve.AsyncDiscoveryService`) with hundreds of simulated
  jittery-latency users and print throughput + question-latency
  percentiles;
* ``serve`` — run the real HTTP/WebSocket server
  (:class:`repro.serve.DiscoveryApp`) over a collection file or a
  synthetic collection, with graceful drain on SIGINT/SIGTERM; the
  default host is the stdlib embedded server, ``--uvicorn`` runs the
  same ASGI app under uvicorn (the ``http`` extra);
* ``soak`` — the deterministic fault-injecting soak/chaos harness
  (:mod:`repro.soak`): seeded hostile virtual users against a real
  server child (or the in-process service) under restarts, drops,
  storms, deltas and overload, exiting non-zero on any invariant
  violation (``docs/soak.md``).

Installed as ``repro-setdisc`` (see pyproject) and runnable as
``python -m repro``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .core.bounds import AD, metric_by_name
from .core.discovery import DiscoverySession
from .core.lookahead import KLPSelector
from .core.selection import InfoGainSelector
from .data.loaders import load_collection, save_collection
from .data.synthetic import SyntheticConfig, generate_collection
from .data.webtables import WebTableConfig, generate_webtable_collection
from .oracle.user import SimulatedUser, StdinUser


def _build_selector(args: argparse.Namespace):
    metric = metric_by_name(getattr(args, "metric", "AD"))
    if getattr(args, "selector", "klp") == "infogain":
        return InfoGainSelector()
    q = getattr(args, "q", None)
    variable = bool(getattr(args, "variable", False))
    if variable and q is None:
        q = 10
    return KLPSelector(
        k=getattr(args, "k", 2), metric=metric, q=q, variable=variable
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "synthetic":
        config = SyntheticConfig(
            n_sets=args.n_sets,
            size_lo=args.size_lo,
            size_hi=args.size_hi,
            overlap=args.overlap,
            seed=args.seed,
        )
        collection = generate_collection(config)
    else:
        collection = generate_webtable_collection(
            WebTableConfig(n_sets=args.n_sets, seed=args.seed)
        )
    save_collection(collection, args.out)
    print(
        f"wrote {collection.n_sets} sets over "
        f"{collection.n_entities} entities to {args.out}"
    )
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    collection = load_collection(args.collection)
    selector = _build_selector(args)
    initial = args.initial or []
    session = DiscoverySession(
        collection,
        selector,
        initial=initial,
        max_questions=args.max_questions,
    )
    if session.n_candidates == 0:
        print("no set contains all the initial entities", file=sys.stderr)
        return 1
    print(
        f"{session.n_candidates} candidate sets match the initial "
        f"examples {initial!r}"
    )
    if args.target is not None:
        oracle = SimulatedUser(
            collection, target_index=collection.index_of(args.target)
        )
    else:
        oracle = StdinUser(collection)
    result = session.run(oracle)
    if result.resolved:
        idx = result.target
        print(
            f"found {collection.name_of(idx)} after "
            f"{result.n_questions} questions"
        )
        members = sorted(str(x) for x in collection.set_labels(idx))
        print("members:", ", ".join(members))
    else:
        names = [collection.name_of(i) for i in result.candidates]
        print(
            f"stopped with {len(names)} candidates after "
            f"{result.n_questions} questions: {', '.join(names[:10])}"
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import REGISTRY, run_experiment

    if args.list or args.name is None:
        for name in sorted(REGISTRY):
            print(name)
        return 0
    for table in run_experiment(args.name, args.scale):
        print(table.render())
        print()
    return 0


def _cmd_baseball(args: argparse.Namespace) -> int:
    from .querydisc import BaseballWorkload, discover_target_query

    workload = BaseballWorkload.build(n_players=args.players)
    case = workload.case(args.target)
    print(f"target {case.name}: {case.query.sql()}")
    print(
        f"output tuples: {case.output_size}; example tuples: "
        f"{', '.join(case.example_player_ids())}"
    )
    outcome = discover_target_query(case, _build_selector(args))
    print(
        f"candidates: {outcome.n_candidate_queries} queries / "
        f"{outcome.n_unique_sets} unique outputs"
    )
    print(
        f"questions: {outcome.n_questions}; "
        f"discovery time: {outcome.discovery_seconds:.3f}s; "
        f"target found: {outcome.target_found}"
    )
    for sql in outcome.discovered_queries[:5]:
        print("  ", sql)
    return 0


def _cmd_serve_demo(args: argparse.Namespace) -> int:
    import asyncio
    import random
    import time

    from .data.synthetic import SyntheticConfig, generate_collection
    from .serve import AsyncDiscoveryService
    from .serve.metrics import quantile_sorted

    collection = generate_collection(
        SyntheticConfig(
            n_sets=args.n_sets,
            size_lo=args.size_lo,
            size_hi=args.size_hi,
            overlap=args.overlap,
            seed=args.seed,
        )
    )
    print(f"collection: {collection} (backend={collection.backend})")
    rng = random.Random(args.seed)
    latencies: list[float] = []

    async def user(service, key, oracle, jitter) -> int:
        questions = 0
        while True:
            start = time.perf_counter()
            entity = await service.ask(key)
            latencies.append(time.perf_counter() - start)
            if entity is None:
                break
            questions += 1
            if args.jitter_ms > 0:
                # A think-time a real user would need before replying.
                await asyncio.sleep(jitter.random() * args.jitter_ms / 1000)
            service.answer(key, oracle(entity))
        await service.result(key)
        return questions

    async def demo() -> None:
        async with AsyncDiscoveryService(
            collection,
            flush_after_ms=args.flush_after_ms,
            max_batch=args.max_batch,
        ) as service:
            tasks = []
            start = time.perf_counter()
            for key in range(args.users):
                target = rng.randrange(collection.n_sets)
                service.add(
                    DiscoverySession(collection, _build_selector(args)),
                    key=key,
                )
                oracle = SimulatedUser(collection, target_index=target)
                tasks.append(
                    asyncio.create_task(
                        user(service, key, oracle, random.Random(1000 + key))
                    )
                )
            questions = sum(await asyncio.gather(*tasks))
            elapsed = time.perf_counter() - start
            stats = service.stats
            resolved = sum(
                1 for r in service.results.values() if r.resolved
            )
            print(
                f"served {args.users} concurrent users: {resolved} resolved, "
                f"{questions} questions in {elapsed * 1000:.0f} ms "
                f"({questions / elapsed:.0f} questions/s aggregate)"
            )
            asks = sorted(latencies)
            print(
                f"ask() latency: p50 {quantile_sorted(asks, 0.50) * 1000:.2f} ms, "
                f"p95 {quantile_sorted(asks, 0.95) * 1000:.2f} ms "
                f"(budget {args.flush_after_ms:.1f} ms, "
                f"watermark {args.max_batch})"
            )
            print(
                f"scheduler: {stats.ticks} flushes, "
                f"{stats.scanned_masks} masks scanned in "
                f"{stats.batched_scans} stacked passes, "
                f"{stats.scan_cache_hits} cache hits, "
                f"{stats.scoring_groups} scoring groups for "
                f"{stats.batched_selections} batched selections"
            )

    asyncio.run(demo())
    return 0


def _serve_collection(args: argparse.Namespace):
    """The collection to serve plus the picklable spec that rebuilds it.

    The spec is what ``--workers N`` ships to every engine worker so each
    rebuilds a byte-identical replica instead of unpickling masks.
    """
    backend = getattr(args, "backend", None)
    if args.collection is not None:
        spec = {"path": str(args.collection)}
        return load_collection(args.collection, backend=backend), spec
    synth = {
        "n_sets": args.n_sets,
        "size_lo": args.size_lo,
        "size_hi": args.size_hi,
        "overlap": args.overlap,
        "seed": args.seed,
    }
    return (
        generate_collection(SyntheticConfig(**synth), backend=backend),
        {"synthetic": synth},
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve import (
        AsyncDiscoveryService,
        ClusterService,
        DiscoveryApp,
        EmbeddedServer,
    )

    if args.workers < 0:
        print("--workers must be >= 0", file=sys.stderr)
        return 2
    if args.workers and args.uvicorn:
        print(
            "--workers shards sessions behind the embedded server; "
            "combine it with uvicorn by fronting `repro serve` yourself",
            file=sys.stderr,
        )
        return 2

    collection, collection_spec = _serve_collection(args)
    info = {
        "n_sets": collection.n_sets,
        "n_entities": collection.n_entities,
        "backend": collection.backend,
    }

    if args.uvicorn:
        try:
            import uvicorn
        except ImportError:
            print(
                "uvicorn is not installed; install the 'http' extra or "
                "drop --uvicorn to use the embedded server",
                file=sys.stderr,
            )
            return 1

        # uvicorn owns the loop and signals; the app's lifespan shutdown
        # runs the drain (grace 0 — uvicorn already waited for handlers).
        service = AsyncDiscoveryService(
            collection,
            flush_after_ms=args.flush_after_ms,
            max_batch=args.max_batch,
            max_sessions=args.max_sessions,
            max_queued=args.max_queued,
            overload_policy=args.overload_policy,
            retry_after_s=args.retry_after_s,
        )
        app = DiscoveryApp(
            service,
            require_auth=not args.no_auth,
            collection_info=info,
            session_ttl_s=args.session_ttl_s,
            admin_token=args.admin_token,
        )
        uvicorn.run(app, host=args.host, port=args.port, log_level="warning")
        return 0

    def build_service():
        if args.workers:
            return ClusterService(
                collection,
                workers=args.workers,
                collection_spec=collection_spec,
                backend=args.backend,
                flush_after_ms=args.flush_after_ms,
                max_batch=args.max_batch,
                max_sessions=args.max_sessions,
                max_queued=args.max_queued,
                overload_policy=args.overload_policy,
                retry_after_s=args.retry_after_s,
                restart_workers=not args.no_restart,
            )
        return AsyncDiscoveryService(
            collection,
            flush_after_ms=args.flush_after_ms,
            max_batch=args.max_batch,
            max_sessions=args.max_sessions,
            max_queued=args.max_queued,
            overload_policy=args.overload_policy,
            retry_after_s=args.retry_after_s,
        )

    async def serve() -> int:
        async with build_service() as service:
            app = DiscoveryApp(
                service,
                require_auth=not args.no_auth,
                collection_info=info,
                session_ttl_s=args.session_ttl_s,
                admin_token=args.admin_token,
            )
            server = EmbeddedServer(app, host=args.host, port=args.port)
            await server.start()
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, stop.set)
            # The readiness line the bench/CI parse for the bound port —
            # keep the exact format.
            print(f"serving on http://{args.host}:{server.port}", flush=True)
            await stop.wait()
            print(
                f"draining ({args.drain_grace_s:.1f}s grace) ...", flush=True
            )
            # Drain the app first: new sessions already get 503 and every
            # in-flight waiter resolves (or is rejected with ServiceClosed)
            # before the listener closes, so no request dies with a reset.
            await app.drain(grace_s=args.drain_grace_s)
            try:
                # 3.12+ wait_closed() also waits for connection handlers;
                # idle keep-alive peers shouldn't stall shutdown forever.
                await asyncio.wait_for(server.aclose(), timeout=1.0)
            except (asyncio.TimeoutError, TimeoutError):
                pass
            print("drained; bye", flush=True)
        return 0

    return asyncio.run(serve())


def _cmd_soak(args: argparse.Namespace) -> int:
    from .soak import FAULTS_BY_MODE, SoakConfig, run_soak

    faults = tuple(f for f in args.faults.split(",") if f)
    try:
        cfg = SoakConfig(
            seed=args.seed,
            duration_s=args.duration,
            mode=args.mode,
            faults=faults,
            users=args.users,
            workers=args.workers,
            n_sets=args.n_sets,
            size_lo=args.size_lo,
            size_hi=args.size_hi,
            overlap=args.overlap,
            flush_after_ms=args.flush_after_ms,
            max_batch=args.max_batch,
            session_ttl_s=args.session_ttl_s,
            max_sessions=args.max_sessions,
            max_queued=args.max_queued,
            overload_policy=args.overload_policy,
            retry_after_s=args.retry_after_s,
            ws_fraction=args.ws_fraction,
            abandon_rate=args.abandon_rate,
            dk_rate=args.dk_rate,
            think_ms=args.think_ms,
            stuck_after_s=args.stuck_after_s,
            rss_limit_mb_s=args.rss_limit_mb_s,
            epoch_cap=args.epoch_cap,
        )
    except ValueError as exc:
        print(f"soak: {exc}", file=sys.stderr)
        print(
            f"soak: faults per mode: {FAULTS_BY_MODE}", file=sys.stderr
        )
        return 2

    report = run_soak(cfg, log=lambda msg: print(f"soak: {msg}", flush=True))
    if args.report:
        from pathlib import Path

        Path(args.report).write_text(
            report.to_json() + "\n", encoding="utf-8"
        )
        print(f"soak: report written to {args.report}", flush=True)
    print(report.to_json(), flush=True)
    if not report.ok:
        print(
            f"soak: FAILED with {len(report.violations)} violation(s)",
            file=sys.stderr,
        )
        return 1
    print(
        f"soak: OK — {report.counters['sessions_completed']} sessions, "
        f"{report.parity_checked} transcripts replay-verified, "
        f"{report.lives} server life/lives",
        flush=True,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-setdisc",
        description=(
            "Interactive set discovery (EDBT 2023 reproduction): find a "
            "target set in a closed collection with few membership "
            "questions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a collection file")
    gen.add_argument("kind", choices=["synthetic", "webtables"])
    gen.add_argument("out", help="output path (.json or text)")
    gen.add_argument("--n-sets", type=int, default=1000)
    gen.add_argument("--size-lo", type=int, default=50)
    gen.add_argument("--size-hi", type=int, default=60)
    gen.add_argument("--overlap", type=float, default=0.9)
    gen.add_argument("--seed", type=int, default=42)
    gen.set_defaults(func=_cmd_generate)

    disc = sub.add_parser("discover", help="interactive discovery")
    disc.add_argument("collection", help="collection file (.json or text)")
    disc.add_argument(
        "--initial", nargs="*", help="initial example entities"
    )
    disc.add_argument(
        "--target",
        help="simulate a user looking for this named set "
        "(omit for interactive y/n/? prompts)",
    )
    disc.add_argument("--selector", choices=["klp", "infogain"], default="klp")
    disc.add_argument("--k", type=int, default=2)
    disc.add_argument("--q", type=int, default=None)
    disc.add_argument("--variable", action="store_true")
    disc.add_argument("--metric", choices=["AD", "H"], default="AD")
    disc.add_argument("--max-questions", type=int, default=None)
    disc.set_defaults(func=_cmd_discover)

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("name", nargs="?", help="experiment id")
    exp.add_argument(
        "--scale", choices=["small", "medium", "paper"], default="small"
    )
    exp.add_argument("--list", action="store_true", help="list experiments")
    exp.set_defaults(func=_cmd_experiment)

    bb = sub.add_parser("baseball", help="query discovery for T1-T7")
    bb.add_argument(
        "target", choices=[f"T{i}" for i in range(1, 8)], help="target query"
    )
    bb.add_argument("--players", type=int, default=20_185)
    bb.add_argument("--selector", choices=["klp", "infogain"], default="klp")
    bb.add_argument("--k", type=int, default=2)
    bb.add_argument("--q", type=int, default=None)
    bb.add_argument("--variable", action="store_true")
    bb.add_argument("--metric", choices=["AD", "H"], default="AD")
    bb.set_defaults(func=_cmd_baseball)

    serve = sub.add_parser(
        "serve-demo",
        help="asyncio serving demo: many concurrent simulated users",
    )
    serve.add_argument("--users", type=int, default=200)
    serve.add_argument("--n-sets", type=int, default=2000)
    serve.add_argument("--size-lo", type=int, default=30)
    serve.add_argument("--size-hi", type=int, default=40)
    serve.add_argument("--overlap", type=float, default=0.85)
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument(
        "--flush-after-ms",
        type=float,
        default=2.0,
        help="scan-batching latency budget of the scheduler",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="queued requests that trigger an immediate flush",
    )
    serve.add_argument(
        "--jitter-ms",
        type=float,
        default=5.0,
        help="max simulated user think-time per answer (0 disables)",
    )
    serve.add_argument(
        "--selector", choices=["klp", "infogain"], default="infogain"
    )
    serve.add_argument("--k", type=int, default=2)
    serve.add_argument("--q", type=int, default=None)
    serve.add_argument("--variable", action="store_true")
    serve.add_argument("--metric", choices=["AD", "H"], default="AD")
    serve.set_defaults(func=_cmd_serve_demo)

    http = sub.add_parser(
        "serve",
        help="run the HTTP/WebSocket discovery server",
    )
    http.add_argument("--host", default="127.0.0.1")
    http.add_argument(
        "--port",
        type=int,
        default=8000,
        help="TCP port (0 picks a free one; see the readiness line)",
    )
    http.add_argument(
        "--collection",
        default=None,
        help="collection file (.json or text); omit for synthetic",
    )
    http.add_argument("--n-sets", type=int, default=2000)
    http.add_argument("--size-lo", type=int, default=30)
    http.add_argument("--size-hi", type=int, default=40)
    http.add_argument("--overlap", type=float, default=0.85)
    http.add_argument("--seed", type=int, default=42)
    http.add_argument(
        "--flush-after-ms",
        type=float,
        default=2.0,
        help="scan-batching latency budget of the scheduler",
    )
    http.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="queued requests that trigger an immediate flush",
    )
    http.add_argument(
        "--no-auth",
        action="store_true",
        help="skip bearer-token checks (trusted loopback only)",
    )
    http.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        help="reject session creation past this many active sessions "
        "(HTTP 429 / WS busy; default: unbounded)",
    )
    http.add_argument(
        "--max-queued",
        type=int,
        default=None,
        help="bound on requests queued for the next flush; new requests "
        "past it are shed or parked per --overload-policy "
        "(default: unbounded)",
    )
    http.add_argument(
        "--overload-policy",
        choices=["shed", "wait"],
        default="shed",
        help="at --max-queued: 'shed' answers 429, 'wait' parks the "
        "request until a flush frees room",
    )
    http.add_argument(
        "--retry-after-s",
        type=float,
        default=1.0,
        help="Retry-After hint attached to 429 responses",
    )
    http.add_argument(
        "--session-ttl",
        dest="session_ttl_s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="expire session handles idle this long (default: never)",
    )
    http.add_argument(
        "--admin-token",
        default=None,
        help="bearer token enabling POST /admin/delta (default: disabled)",
    )
    http.add_argument(
        "--drain-grace-s",
        type=float,
        default=5.0,
        help="seconds in-flight sessions get to finish on shutdown",
    )
    http.add_argument(
        "--uvicorn",
        action="store_true",
        help="host the ASGI app under uvicorn (the 'http' extra) "
        "instead of the embedded stdlib server",
    )
    http.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard sessions across this many engine worker processes "
        "(0 = single in-process engine, today's default path)",
    )
    http.add_argument(
        "--backend",
        choices=["bigint", "numpy", "native"],
        default=None,
        help="force the entity-statistics kernel backend "
        "(default: fastest importable)",
    )
    http.add_argument(
        "--no-restart",
        action="store_true",
        help="with --workers: leave a dead engine worker down instead "
        "of restarting it (fault-analysis runs)",
    )
    http.set_defaults(func=_cmd_serve)

    soak = sub.add_parser(
        "soak",
        help="fault-injecting soak/chaos run; non-zero exit on violations",
    )
    soak.add_argument("--seed", type=int, default=42)
    soak.add_argument(
        "--duration",
        type=float,
        default=30.0,
        help="seconds of scheduled traffic (joins and faults; in-flight "
        "sessions are allowed to finish after it)",
    )
    soak.add_argument(
        "--faults",
        default="storm,delta",
        help="comma-separated fault kinds: restart,storm,delta,drop,"
        "overload,worker-kill (server mode) / stall,storm,delta,drop,"
        "overload (inprocess); worker-kill needs --workers >= 2",
    )
    soak.add_argument(
        "--mode",
        choices=["server", "inprocess"],
        default="server",
        help="'server' boots a real `repro serve` child; 'inprocess' "
        "drives AsyncDiscoveryService directly",
    )
    soak.add_argument("--users", type=int, default=24)
    soak.add_argument(
        "--workers",
        type=int,
        default=0,
        help="boot the server child with this many engine worker "
        "processes (enables the worker-kill fault; server mode only)",
    )
    soak.add_argument("--n-sets", type=int, default=400)
    soak.add_argument("--size-lo", type=int, default=12)
    soak.add_argument("--size-hi", type=int, default=20)
    soak.add_argument("--overlap", type=float, default=0.75)
    soak.add_argument("--flush-after-ms", type=float, default=2.0)
    soak.add_argument("--max-batch", type=int, default=64)
    soak.add_argument(
        "--session-ttl",
        dest="session_ttl_s",
        type=float,
        default=4.0,
        metavar="SECONDS",
        help="idle TTL handed to the server; abandoned sessions must be "
        "reaped within it",
    )
    soak.add_argument("--max-sessions", type=int, default=None)
    soak.add_argument("--max-queued", type=int, default=None)
    soak.add_argument(
        "--overload-policy", choices=["shed", "wait"], default="shed"
    )
    soak.add_argument("--retry-after-s", type=float, default=0.2)
    soak.add_argument("--ws-fraction", type=float, default=0.3)
    soak.add_argument("--abandon-rate", type=float, default=0.15)
    soak.add_argument("--dk-rate", type=float, default=0.05)
    soak.add_argument(
        "--think-ms",
        type=float,
        default=150.0,
        help="max per-question think time of a regular user",
    )
    soak.add_argument("--stuck-after-s", type=float, default=20.0)
    soak.add_argument(
        "--rss-limit-mb-s",
        type=float,
        default=6.0,
        help="RSS growth slope ceiling per server life (MiB/s)",
    )
    soak.add_argument("--epoch-cap", type=int, default=5)
    soak.add_argument(
        "--report", default=None, help="also write the JSON report here"
    )
    soak.set_defaults(func=_cmd_soak)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
