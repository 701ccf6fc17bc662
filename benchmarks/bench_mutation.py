"""Mutation benchmark: copy-on-write delta apply vs a from-scratch rebuild.

The point of the epoch model (``docs/collections.md``) is that a small
delta — a fraction of a percent of the sets changing — must not cost a
full re-index of a huge collection.  This bench builds a large collection,
derives a delta batch touching ``delta_fraction`` of its sets (a mix of
removals, replacements, additions and membership edits), and times

* ``collection.apply_delta(batch)`` — the copy-on-write path, and
* ``SetCollection(new_content, ...)`` — rebuilding the post-delta content
  from scratch on the same shared universe,

best-of-``repeat`` each.  Before any timing, one apply is checked against
the rebuild for exact content parity (names, sets, entity masks — and the
packed bit-matrix byte-for-byte on the vectorized backend): parity is the
contract, the speedup is the product.

Writes ``benchmarks/out/BENCH_mutation.json`` and the pytest wrapper
gates the minimum speedup (a <= 1% delta at 100k sets must apply at least
10x faster than the rebuild).  Scale knobs
(environment):

* ``REPRO_MUTATION_BENCH_SETS`` — sets in the collection (default 100000)
* ``REPRO_MUTATION_BENCH_UNIVERSE`` — entity universe size (default 2000)
* ``REPRO_MUTATION_BENCH_FRACTION`` — fraction of sets changed (default 0.01)
* ``REPRO_MUTATION_BENCH_REPEAT`` — timing repetitions, best-of (default 3)
* ``REPRO_MUTATION_BENCH_MIN_SPEEDUP`` — asserted delta speedup (default 10)
* ``REPRO_MUTATION_BENCH_BACKEND`` — kernel backend (default numpy)
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.core.collection import DeltaBatch, SetCollection
from repro.core.kernels import HAS_NUMPY
from repro.core.universe import Universe
from repro.data.synthetic import SyntheticConfig, generate_sets

_OUT_PATH = Path(__file__).parent / "out" / "BENCH_mutation.json"


def _bench_config() -> dict:
    return {
        "n_sets": int(os.environ.get("REPRO_MUTATION_BENCH_SETS", "100000")),
        "universe_size": int(
            os.environ.get("REPRO_MUTATION_BENCH_UNIVERSE", "2000")
        ),
        "delta_fraction": float(
            os.environ.get("REPRO_MUTATION_BENCH_FRACTION", "0.01")
        ),
        "repeat": int(os.environ.get("REPRO_MUTATION_BENCH_REPEAT", "3")),
        "backend": os.environ.get("REPRO_MUTATION_BENCH_BACKEND", "numpy"),
        "size_lo": 50,
        "size_hi": 60,
        "overlap": 0.9,
        "seed": 7,
    }


def _build_collection(cfg: dict) -> SetCollection:
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
    return SetCollection(
        (sorted(s) for s in raw), universe=Universe(), backend=cfg["backend"]
    )


def _delta_batch(collection: SetCollection, cfg: dict) -> DeltaBatch:
    """A batch touching ``delta_fraction`` of the sets.

    Half the budget removes sets (a third of those replaced by a fresh
    set under the removed name — the atomic-replacement slot path), the
    other half edits membership in place; a few genuinely new sets are
    appended on top.  Deterministic for a given config.
    """
    rng = random.Random(cfg["seed"] ^ 0xD317A)
    n = collection.n_sets
    budget = max(1, int(n * cfg["delta_fraction"]))
    labels = [
        collection.universe.label(e)
        for e in range(min(collection.n_entities, 512))
    ]
    indices = rng.sample(range(n), min(n, budget))
    removed = indices[: budget // 2]
    edited = indices[budget // 2 :]
    batch = DeltaBatch()
    if removed:
        batch.remove_sets([collection.name_of(i) for i in removed])
    for j, i in enumerate(removed[: len(removed) // 3]):
        batch.add_sets(
            {collection.name_of(i): rng.sample(labels, rng.randint(40, 70))}
        )
    for j in range(max(1, budget // 20)):
        batch.add_sets(
            {f"delta-new-{j}": rng.sample(labels, rng.randint(40, 70))}
        )
    for i in edited:
        current = sorted(collection._sets[i])
        gain = rng.sample(labels, 3)  # already-present labels are no-ops
        drop = [collection.universe.label(e) for e in current[:1]]
        batch.update_membership(collection.name_of(i), add=gain, remove=drop)
    return batch


def _rebuild(evolved: SetCollection, backend: str) -> SetCollection:
    """From-scratch rebuild of the post-delta content (shared universe)."""
    return SetCollection(
        [
            [evolved.universe.label(e) for e in sorted(evolved._sets[i])]
            for i in range(evolved.n_sets)
        ],
        names=list(evolved.names),
        universe=evolved.universe,
        backend=backend,
    )


def _assert_parity(evolved: SetCollection, rebuilt: SetCollection) -> None:
    assert evolved.names == rebuilt.names, "names diverged — parity violation"
    assert [evolved._sets[i] for i in range(evolved.n_sets)] == [
        rebuilt._sets[i] for i in range(rebuilt.n_sets)
    ], "set contents diverged — parity violation"
    assert evolved._entity_masks == rebuilt._entity_masks, (
        "entity masks diverged — parity violation"
    )
    matrix = getattr(evolved._kernel, "_matrix", None)
    if matrix is not None:
        assert (
            matrix.tobytes() == rebuilt._kernel._matrix.tobytes()
        ), "packed bit-matrix diverged — parity violation"


def run_mutation_comparison(out_path: Path = _OUT_PATH) -> dict:
    """Time delta-apply vs full rebuild; write BENCH_mutation.json."""
    cfg = _bench_config()
    collection = _build_collection(cfg)
    batch = _delta_batch(collection, cfg)

    # Warm-up + parity proof before any timing (also triggers lazy kernel
    # structures on both sides so steady-state numbers are honest).
    evolved = collection.apply_delta(batch)
    rebuilt = _rebuild(evolved, cfg["backend"])
    _assert_parity(evolved, rebuilt)

    # The rebuild content payload is prepared outside the timed region:
    # the comparison is index+kernel construction, not list building.
    payload = [
        [evolved.universe.label(e) for e in sorted(evolved._sets[i])]
        for i in range(evolved.n_sets)
    ]
    names = list(evolved.names)

    best = {"delta_apply": float("inf"), "rebuild": float("inf")}
    for _ in range(cfg["repeat"]):
        start = time.perf_counter()
        collection.apply_delta(batch)
        best["delta_apply"] = min(
            best["delta_apply"], time.perf_counter() - start
        )
        start = time.perf_counter()
        SetCollection(
            payload,
            names=names,
            universe=evolved.universe,
            backend=cfg["backend"],
        )
        best["rebuild"] = min(best["rebuild"], time.perf_counter() - start)

    report = {
        "bench": "mutation-delta-vs-rebuild",
        "config": cfg,
        "batch_ops": len(batch),
        "epoch": evolved.epoch,
        "n_sets_after": evolved.n_sets,
        "results": {
            name: {"seconds": seconds} for name, seconds in best.items()
        },
        "speedup": best["rebuild"] / max(best["delta_apply"], 1e-12),
    }
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend unavailable")
def test_delta_apply_speedup():
    report = run_mutation_comparison()
    min_speedup = float(
        os.environ.get("REPRO_MUTATION_BENCH_MIN_SPEEDUP", "10")
    )
    assert report["speedup"] >= min_speedup, (
        f"delta apply only {report['speedup']:.2f}x faster than a full "
        f"rebuild (required {min_speedup:.1f}x): "
        f"{json.dumps(report, indent=2)}"
    )


def main() -> None:
    report = run_mutation_comparison()
    print(json.dumps(report, indent=2))
    print(f"written to {_OUT_PATH}")


if __name__ == "__main__":
    main()
