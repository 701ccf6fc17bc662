"""Native-kernel benchmark: fused C popcount sweeps vs the numpy pipeline.

Times the full-scale informative scan — the single full-entity root scan
and one engine tick's worth of stacked session masks — through the numpy
backend and through the native C extension over the same packed
bit-matrix.  Parity is asserted on every result before anything is timed
(the warm-up doubles as the proof), mirroring ``bench_shards.py``.

The native kernel is additionally timed **per SIMD tier**: the extension's
runtime dispatch is pinned to each tier the build/CPU supports (``scalar``,
``avx2``, ``avx512``) and the same scans re-run, with parity asserted per
tier first — the A/B evidence that the vector sweeps are both faster and
bit-identical.  The auto-selected tier is restored afterwards.

Writes ``benchmarks/out/BENCH_native.json`` and the pytest wrappers gate
the minimum native speedup on the full scan plus the minimum
SIMD-vs-scalar speedup, each skipping when the required extension/tier is
unavailable.
Scale knobs (environment):

* ``REPRO_NATIVE_BENCH_SESSIONS`` — stacked session masks (default 256)
* ``REPRO_NATIVE_BENCH_SETS`` — sets in the collection (default 10000)
* ``REPRO_NATIVE_BENCH_UNIVERSE`` — entity universe size (default 2000)
* ``REPRO_NATIVE_BENCH_REPEAT`` — timing repetitions, best-of (default 5)
* ``REPRO_NATIVE_BENCH_MIN_SPEEDUP`` — asserted native speedup on the
  full scan (default 2)
* ``REPRO_NATIVE_BENCH_MIN_SIMD_SPEEDUP`` — asserted vector-tier speedup
  over the pinned scalar tier on the stacked scan (default 1.5)
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.core.bitmask import popcount
from repro.core.collection import SetCollection
from repro.core.kernels import HAS_NATIVE, get_tuning
from repro.core.kernels._native import ext as _ext
from repro.core.universe import Universe
from repro.data.synthetic import SyntheticConfig, generate_sets

_OUT_PATH = Path(__file__).parent / "out" / "BENCH_native.json"


def _bench_config() -> dict:
    return {
        "n_sessions": int(os.environ.get("REPRO_NATIVE_BENCH_SESSIONS", "256")),
        "n_sets": int(os.environ.get("REPRO_NATIVE_BENCH_SETS", "10000")),
        "universe_size": int(
            os.environ.get("REPRO_NATIVE_BENCH_UNIVERSE", "2000")
        ),
        "repeat": int(os.environ.get("REPRO_NATIVE_BENCH_REPEAT", "5")),
        "size_lo": 50,
        "size_hi": 60,
        "overlap": 0.9,
        "seed": 7,
    }


def _build_collections(cfg: dict) -> tuple[SetCollection, SetCollection]:
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
    sets = [sorted(s) for s in raw]
    return (
        SetCollection(sets, universe=Universe(), backend="numpy"),
        SetCollection(sets, universe=Universe(), backend="native"),
    )


def _session_masks(collection: SetCollection, cfg: dict) -> list[int]:
    """Wide session masks: the root narrowed by at most one answer.

    Deep (membership-bound) masks route to the set-major CSR gather on
    *both* backends — identical code, no native speedup to measure — so
    this bench keeps every mask width-bound, where the fused C sweep is
    the path under test.
    """
    rng = random.Random(13)
    eids = list(collection.entity_ids())
    masks = []
    for _ in range(cfg["n_sessions"]):
        mask = collection.full_mask
        if rng.random() < 0.5:
            em = collection.entity_mask(rng.choice(eids))
            narrowed = mask & em if rng.random() < 0.5 else mask & ~em
            if popcount(narrowed) >= 2:
                mask = narrowed
        masks.append(mask)
    return masks


def _assert_parity(a, b) -> None:
    for (ea, ca), (eb, cb) in zip(a, b):
        assert list(map(int, ea)) == list(map(int, eb)), (
            "native scan returned different entities — parity violation"
        )
        assert list(map(int, ca)) == list(map(int, cb)), (
            "native scan returned different counts — parity violation"
        )


def run_native_comparison(out_path: Path = _OUT_PATH) -> dict:
    """Time both backends on the same scans; write BENCH_native.json."""
    cfg = _bench_config()
    numpy_coll, native_coll = _build_collections(cfg)
    masks = _session_masks(numpy_coll, cfg)
    ns = [popcount(m) for m in masks]
    full = numpy_coll.full_mask
    n_full = popcount(full)
    kernels = {
        "numpy": numpy_coll.kernel,
        "native": native_coll.kernel,
    }

    # Warm-up before any timing (lazy CSR mirror builds, page-in of both
    # matrices) — and prove parity on exactly the scans timed below.
    _assert_parity(
        [kernels["numpy"].scan_informative(full, n_full, None)],
        [kernels["native"].scan_informative(full, n_full, None)],
    )
    _assert_parity(
        kernels["numpy"].scan_informative_many(masks, ns),
        kernels["native"].scan_informative_many(masks, ns),
    )

    best = {
        name: {"scan_s": float("inf"), "stacked_s": float("inf")}
        for name in kernels
    }
    for _ in range(cfg["repeat"]):
        for name, kernel in kernels.items():
            start = time.perf_counter()
            kernel.scan_informative(full, n_full, None)
            best[name]["scan_s"] = min(
                best[name]["scan_s"], time.perf_counter() - start
            )
            start = time.perf_counter()
            kernel.scan_informative_many(masks, ns)
            best[name]["stacked_s"] = min(
                best[name]["stacked_s"], time.perf_counter() - start
            )

    # Per-SIMD-tier A/B on the fused C sweep itself.  The working set is
    # clamped to an L2-resident row block on purpose: at full collection
    # scale the stacked scan is DRAM-bandwidth bound and every popcount
    # implementation converges on the memory bus — the cache-resident
    # block is what isolates the vector sweep the tiers differ in.
    # Parity per tier is asserted against the pinned-scalar output before
    # timing; the dispatch is global, so the auto tier is restored in
    # ``finally``.
    auto_tier = _ext.simd_level()
    tiers = list(_ext.available_simd_levels())
    native = kernels["native"]
    import numpy as np

    simd_rows = min(len(native._matrix), 512)
    block = np.ascontiguousarray(native._matrix[:simd_rows])
    n_words = native._n_words
    simd_masks = native._stack_words(masks[: min(len(masks), 64)])
    simd_ns = np.asarray(ns[: simd_masks.shape[0]], dtype=np.int64)
    out_rows = np.empty(simd_masks.shape[0] * simd_rows, dtype=np.int64)
    out_counts = np.empty_like(out_rows)
    indptr = np.empty(simd_masks.shape[0] + 1, dtype=np.int64)
    tier_ref = None
    try:
        for tier in tiers:
            _ext.set_simd_level(tier)
            leg = f"native-{tier}"
            _ext.scan_informative_many(
                block, n_words, simd_masks, simd_ns,
                out_rows, out_counts, indptr,
            )
            got = (
                out_rows[: indptr[-1]].copy(),
                out_counts[: indptr[-1]].copy(),
                indptr.copy(),
            )
            if tier_ref is None:
                tier_ref = got  # the scalar tier runs first
            else:
                assert all(
                    (a == b).all() for a, b in zip(got, tier_ref)
                ), f"SIMD tier {tier} diverged from scalar — parity violation"
            best[leg] = {"stacked_s": float("inf")}
            for _ in range(max(cfg["repeat"], 5)):
                start = time.perf_counter()
                _ext.scan_informative_many(
                    block, n_words, simd_masks, simd_ns,
                    out_rows, out_counts, indptr,
                )
                best[leg]["stacked_s"] = min(
                    best[leg]["stacked_s"], time.perf_counter() - start
                )
    finally:
        _ext.set_simd_level(auto_tier)

    speedup = {
        metric: best["numpy"][metric] / max(best["native"][metric], 1e-12)
        for metric in ("scan_s", "stacked_s")
    }
    # Vector tier vs pinned scalar, on the same C code path: isolates the
    # SIMD win from the C-vs-numpy win above.
    for tier in tiers:
        if tier == "scalar":
            continue
        speedup[f"{tier}_vs_scalar_stacked_s"] = best["native-scalar"][
            "stacked_s"
        ] / max(best[f"native-{tier}"]["stacked_s"], 1e-12)

    report = {
        "bench": "native-kernel-scan",
        "config": cfg,
        "cpu_count": os.cpu_count(),
        "simd_level": auto_tier,
        "simd_levels_available": tiers,
        "tuning_source": get_tuning().source,
        "results": best,
        "speedup": speedup,
    }
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


@pytest.mark.skipif(
    not HAS_NATIVE, reason="native extension did not build — gate skipped"
)
def test_native_scan_speedup():
    report = run_native_comparison()
    min_speedup = float(
        os.environ.get("REPRO_NATIVE_BENCH_MIN_SPEEDUP", "2")
    )
    assert report["speedup"]["scan_s"] >= min_speedup, (
        f"native full scan only {report['speedup']['scan_s']:.2f}x faster "
        f"than numpy (required {min_speedup:.1f}x): "
        f"{json.dumps(report, indent=2)}"
    )


@pytest.mark.skipif(
    not HAS_NATIVE, reason="native extension did not build — gate skipped"
)
@pytest.mark.skipif(
    HAS_NATIVE and len(_ext.available_simd_levels() or ()) < 2,
    reason="no vector SIMD tier on this build/CPU — gate skipped",
)
def test_simd_scan_speedup():
    """The widest vector tier must beat the pinned scalar tier.

    Measured on the stacked scan (the steadier of the two metrics — the
    single full scan is short enough for timer noise at small scales);
    both legs run the same fused C sweep, so the ratio isolates the SIMD
    popcount itself.  Skips when the build or CPU has no vector tier
    (non-x86 targets, MSVC builds, pre-AVX2 chips).
    """
    report = run_native_comparison()
    min_speedup = float(
        os.environ.get("REPRO_NATIVE_BENCH_MIN_SIMD_SPEEDUP", "1.5")
    )
    widest = report["simd_levels_available"][-1]
    key = f"{widest}_vs_scalar_stacked_s"
    assert report["speedup"][key] >= min_speedup, (
        f"{widest} stacked scan only {report['speedup'][key]:.2f}x faster "
        f"than the scalar tier (required {min_speedup:.1f}x): "
        f"{json.dumps(report, indent=2)}"
    )


def main() -> None:
    if not HAS_NATIVE:
        raise SystemExit(
            "native extension not importable — build it first: "
            "python setup.py build_ext --inplace"
        )
    report = run_native_comparison()
    print(json.dumps(report, indent=2))
    print(f"written to {_OUT_PATH}")


if __name__ == "__main__":
    main()
