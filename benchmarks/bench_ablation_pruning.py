"""Bench: ablation of k-LP's three pruning devices (sorted early break,
recursive upper limits, memoisation)."""

from conftest import BENCH_SCALE, report_tables

from repro.experiments import ablation


def test_pruning_device_ablation(benchmark):
    tables = benchmark.pedantic(
        lambda: [
            ablation.run_pruning_ablation(
                BENCH_SCALE, k=2, max_tasks=2, max_sets=70
            )
        ],
        rounds=1,
        iterations=1,
    )
    report_tables("ablation_pruning", tables)
    [table] = tables
    timings = dict(
        zip(table.column("configuration"), table.column("time (s)"))
    )
    # The exhaustive configuration must be the slowest; full Algorithm 1
    # must beat it clearly.
    exhaustive = timings["none (exhaustive)"]
    full = timings["k-LP (Algorithm 1)"]
    assert exhaustive > full
    assert exhaustive / full > 2.0
