"""One benchmark run of one workload (started by ``perfbench/run.py``).

Prints two JSON lines on standard output: a detail record (run config,
sample counts, transcript digest, first errors) and, last, the result::

    {"correct": true, "attempted": 13626, "failed": 0,
     "metrics": {"setup_s": {"value": 1.93, "unit": "s"}, ...}}

With ``--trace 0`` the metrics are the end-to-end metrics of the measured
phase.  With ``--trace 1`` the run measures the workload twice, once as
usual and once with the layer wrappers of :mod:`perfbench.trace`
installed, and reports the per-layer metrics of the traced phase plus the
tracing overhead (traced over untraced ``questions_per_s``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import statistics
import sys
from pathlib import Path

from perfbench import inputs, procstat
from perfbench.ledger import Phase, percentile_ms

ROOT = Path(__file__).resolve().parent.parent
REPORT_DIR = ROOT / ".bench_build" / "reports"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5

#: Measured-phase size per ``--seconds``: sessions (blocks for the edge
#: workloads) per second of nominal run time, sized on a 2-vCPU x86-64 box.
#: Work is fixed by ``--seconds``, never by the clock, so every run of a
#: seed asks the same questions.
RATES = {
    "klp-webtable": (133.0, 8.0),
    "serve-stacked": (140.0, 30.0),
    "edge-churn": (2.1, 1.0),
    "edge-cluster": (2.1, 1.0),
}

#: End-to-end metric units, in report order.
END_TO_END = {
    "setup_s": "s",
    "questions_per_s": "1/s",
    "question_p50_ms": "ms",
    "question_p95_ms": "ms",
    "questions_per_session": "questions",
    "cpu_ms_per_question": "ms",
    "peak_rss_mb": "MB",
}


def end_to_end(phase: Phase) -> dict[str, float]:
    """The seven end-to-end metrics; rates and latency percentiles are
    medians over the phase's slices (see :data:`perfbench.ledger.SLICES`)."""
    ledger = phase.ledger
    questions = max(ledger.questions, 1)
    slices = ledger.slices()
    return {
        "setup_s": statistics.median(phase.setups),
        "questions_per_s": statistics.median(q / dt for dt, q, _ in slices),
        "question_p50_ms": statistics.median(
            percentile_ms(samples, 0.50) for _, _, samples in slices
        ),
        "question_p95_ms": statistics.median(
            percentile_ms(samples, 0.95) for _, _, samples in slices
        ),
        "questions_per_session": ledger.questions / max(ledger.finished, 1),
        "cpu_ms_per_question": phase.cpu_s * 1000.0 / questions,
        "peak_rss_mb": phase.peak_rss_mb,
    }


def run_config() -> dict:
    """The config every number depends on; fails without the native backend."""
    import numpy

    from repro.core import kernels
    from repro.core.kernels._native import ext

    if not kernels.HAS_NATIVE or ext is None:
        raise SystemExit("perfbench: the native kernel backend is not importable")
    return {
        "git_sha": os.environ.get("PERFBENCH_GIT_SHA") or None,
        "source_key": os.environ.get("PERFBENCH_SOURCE_KEY"),
        "backend": "native",
        "simd_tier": ext.simd_level(),
        "tuning_source": kernels.get_tuning().source,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "repro_tuning": os.environ.get("REPRO_TUNING"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def make_plan(args: argparse.Namespace) -> inputs.Plan:
    full, toy = RATES[args.workload]
    rate = toy if args.toy else full
    if args.workload == "klp-webtable":
        return inputs.webtable_plan(args.seed, max(3, round(rate * args.seconds)), args.toy)
    if args.workload == "serve-stacked":
        return inputs.stacked_plan(args.seed, max(4, round(rate * args.seconds)), args.toy)
    return inputs.edge_plan(args.seed, max(2, round(rate * args.seconds)), args.toy)


def run_phase(args, plan, setups: int, traced: bool) -> Phase:
    if args.workload in ("klp-webtable", "serve-stacked"):
        from perfbench import inprocess

        runner = (
            inprocess.run_klp if args.workload == "klp-webtable"
            else inprocess.run_stacked
        )
        return runner(plan, setups, traced, args)
    from perfbench import edge

    workers = 2 if args.workload == "edge-cluster" else 0
    return asyncio.run(edge.run_edge(plan, setups, traced, workers, args))


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(RATES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true",
        help="tiny inputs for the benchmark's own self-tests",
    )
    parser.add_argument(
        "--wrong-user", action="store_true",
        help="simulate a user who flips one answer (self-test of the "
        "correctness check; the run must report correct=false)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    config = run_config()
    plan = make_plan(args)
    detail: dict = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "config": config,
        "sessions": len(plan.sessions), "deltas": len(plan.deltas),
    }
    if args.trace:
        from perfbench import layers

        untraced = run_phase(args, plan, 1, traced=False)
        traced = run_phase(args, plan, 1, traced=True)
        overhead = (
            traced.questions_per_s / untraced.questions_per_s
            if untraced.questions_per_s else 0.0
        )
        metrics, samples, absent = layers.per_layer(traced, overhead)
        phases = (untraced, traced)
        detail.update(samples=samples, not_exercised=absent,
                      self_time=layers.self_time_check(traced),
                      untraced_questions_per_s=untraced.questions_per_s,
                      traced_questions_per_s=traced.questions_per_s)
        units = layers.UNITS
    else:
        steal0, total0 = procstat.cpu_ticks()
        phase = run_phase(args, plan, SETUPS, traced=False)
        steal1, total1 = procstat.cpu_ticks()
        metrics = end_to_end(phase)
        phases = (phase,)
        ledger = phase.ledger
        detail.update(
            setups_s=phase.setups, warmup_s=phase.warmup_s, wall_s=phase.wall_s,
            host_steal_share=(steal1 - steal0) / max(1, total1 - total0),
            samples={
                "question_latency": len(ledger.samples),
                "questions": ledger.questions,
                "finished_sessions": ledger.finished,
            },
            slices=[
                [round(q / dt, 1), round(percentile_ms(samples, 0.95), 3)]
                for dt, q, samples in ledger.slices()
            ],
        )
        units = END_TO_END
    digests = [p.ledger.digest() for p in phases]
    errors = [e for p in phases for e in p.ledger.errors]
    if len(set(digests)) != 1:
        errors.append(f"transcript digests differ between phases: {digests}")
    detail.update(digest=digests[0], errors=errors)
    result = {
        "correct": not errors,
        "attempted": sum(p.ledger.attempted for p in phases),
        "failed": sum(p.ledger.failed for p in phases),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    toy = "-toy" if args.toy else ""
    report = REPORT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{toy}.json"
    report.write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
