"""Microbenchmarks of the core kernels every experiment leans on.

Not a paper artifact — these isolate the primitives (partition,
informative-entity scan, root selection per strategy, exact bounds) so a
performance regression in any of them is visible before it distorts the
table/figure benches.

The module doubles as the **backend-comparison bench** for the pluggable
entity-statistics kernels (:mod:`repro.core.kernels`): it times the
full-entity informative scan, the batched split counts and a root
selection on the big-int reference and the NumPy bit-matrix backend over
the same collection, writes ``benchmarks/out/BENCH_kernels.json`` (see
``benchmarks/README.md``) and asserts the vectorized backend's minimum
speedup on the scan.  Run standalone via
``python benchmarks/bench_core_kernels.py`` or as part of
``pytest benchmarks/``.  Scale knobs (environment):

* ``REPRO_KERNEL_BENCH_SETS`` — sets in the collection (default 10000)
* ``REPRO_KERNEL_BENCH_UNIVERSE`` — entity universe size (default 1000)
* ``REPRO_KERNEL_BENCH_REPEAT`` — timing repetitions (default 5)
* ``REPRO_KERNEL_BENCH_MIN_SPEEDUP`` — asserted scan speedup (default 5)
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.bounds import AD, H
from repro.core.gain_k import lb_k
from repro.core.kernels import HAS_NUMPY
from repro.core.lookahead import KLPSelector
from repro.core.optimal import optimal_cost
from repro.core.selection import InfoGainSelector, MostEvenSelector
from repro.data.synthetic import SyntheticConfig, generate_collection


@pytest.fixture(scope="module")
def collection():
    return generate_collection(
        SyntheticConfig(
            n_sets=400, size_lo=30, size_hi=40, overlap=0.85, seed=13
        )
    )


def test_partition_kernel(benchmark, collection):
    eid, _ = collection.informative_entities(collection.full_mask)[0]
    pos, neg = benchmark(collection.partition, collection.full_mask, eid)
    assert pos | neg == collection.full_mask


def test_informative_entities_kernel(benchmark, collection):
    def scan():
        collection.clear_caches()
        return collection.informative_entities(collection.full_mask)

    pairs = benchmark(scan)
    assert pairs


def test_root_selection_most_even(benchmark, collection):
    selector = MostEvenSelector()
    entity = benchmark(
        selector.select, collection, collection.full_mask
    )
    assert entity >= 0


def test_root_selection_infogain(benchmark, collection):
    selector = InfoGainSelector()
    entity = benchmark(
        selector.select, collection, collection.full_mask
    )
    assert entity >= 0


def test_root_selection_2lp(benchmark, collection):
    def select():
        selector = KLPSelector(k=2, metric=AD)
        return selector.select(collection, collection.full_mask)

    assert benchmark(select) >= 0


def test_root_selection_3lplve(benchmark, collection):
    def select():
        selector = KLPSelector(k=3, metric=AD, q=10, variable=True)
        return selector.select(collection, collection.full_mask)

    assert benchmark(select) >= 0


def test_lb2_reference_kernel(benchmark):
    small = generate_collection(
        SyntheticConfig(
            n_sets=30, size_lo=8, size_hi=12, overlap=0.8, seed=14
        )
    )
    bound = benchmark(lb_k, small, small.full_mask, 2, H)
    assert bound >= 0


def test_optimal_search_kernel(benchmark):
    tiny = generate_collection(
        SyntheticConfig(
            n_sets=11, size_lo=5, size_hi=8, overlap=0.7, seed=15
        )
    )
    cost = benchmark(optimal_cost, tiny, AD)
    assert cost > 0


# --------------------------------------------------------------------- #
# Backend comparison: big-int reference vs NumPy bit-matrix
# --------------------------------------------------------------------- #

_OUT_PATH = Path(__file__).parent / "out" / "BENCH_kernels.json"


def _bench_config() -> SyntheticConfig:
    n_sets = int(os.environ.get("REPRO_KERNEL_BENCH_SETS", "10000"))
    universe = int(os.environ.get("REPRO_KERNEL_BENCH_UNIVERSE", "1000"))
    return SyntheticConfig(
        n_sets=n_sets,
        size_lo=50,
        size_hi=60,
        overlap=0.9,
        universe_size=universe,
        seed=7,
    )


def _build_backend_collection(config: SyntheticConfig, backend: str):
    from repro.core.collection import SetCollection
    from repro.core.universe import Universe
    from repro.data.synthetic import generate_sets

    raw = generate_sets(config)
    return SetCollection(
        (sorted(s) for s in raw), universe=Universe(), backend=backend
    )


def _time_best(fn, repeat: int) -> float:
    """Best-of-``repeat`` wall time in seconds (min damps scheduler noise)."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_backend(collection, repeat: int) -> dict:
    full = collection.full_mask
    eids = list(collection.entity_ids())

    def scan():
        collection.clear_caches()
        return collection.informative_stats(full)

    def counts():
        return collection.positive_counts(full, eids)

    selector = InfoGainSelector()

    def select():
        collection.clear_caches()
        return selector.select(collection, full)

    n_informative = len(scan()[0])
    return {
        "backend": collection.backend,
        "n_informative": n_informative,
        "scan_s": _time_best(scan, repeat),
        "positive_counts_s": _time_best(counts, repeat),
        "select_s": _time_best(select, repeat),
    }


def run_backend_comparison(out_path: Path = _OUT_PATH) -> dict:
    """Time both backends over one collection; write BENCH_kernels.json."""
    config = _bench_config()
    repeat = int(os.environ.get("REPRO_KERNEL_BENCH_REPEAT", "5"))
    results = {}
    backends = ["bigint"] + (["numpy"] if HAS_NUMPY else [])
    for backend in backends:
        collection = _build_backend_collection(config, backend)
        assert collection.backend == backend
        results[backend] = _measure_backend(collection, repeat)
    report = {
        "bench": "kernels-backend-comparison",
        "config": {
            "n_sets": config.n_sets,
            "universe_size": config.universe_size,
            "size_lo": config.size_lo,
            "size_hi": config.size_hi,
            "overlap": config.overlap,
            "repeat": repeat,
        },
        "results": results,
    }
    if "numpy" in results:
        report["speedup"] = {
            key: results["bigint"][key] / max(results["numpy"][key], 1e-12)
            for key in ("scan_s", "positive_counts_s", "select_s")
        }
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend unavailable")
def test_backend_comparison_numpy_speedup():
    report = run_backend_comparison()
    min_speedup = float(
        os.environ.get("REPRO_KERNEL_BENCH_MIN_SPEEDUP", "5")
    )
    speedup = report["speedup"]
    # Parity of results is proven in tests/test_kernels.py; this gate is
    # purely about throughput of the full-entity scan.
    assert speedup["scan_s"] >= min_speedup, (
        f"numpy scan only {speedup['scan_s']:.1f}x faster than bigint "
        f"(required {min_speedup:.1f}x): {json.dumps(report, indent=2)}"
    )


def main() -> None:
    report = run_backend_comparison()
    print(json.dumps(report, indent=2))
    print(f"written to {_OUT_PATH}")


if __name__ == "__main__":
    main()
