"""Randomized cross-backend parity harness.

With five scan paths (big-int reference, numpy row pass, numpy set-major
CSR gather, the native fused C sweep, sharded merge) hand-written parity
cases no longer cover the input space.  This harness generates seeded random collections engineered
to hit the nasty corners — skewed set sizes, an empty set, singleton and
duplicate entities, masks crossing the 63/64/65-set word boundaries — and
asserts that every backend produces *bit-identical* results for every
batched statistic and for batched selection.

Every assertion message carries the generator seed; replay a failure with::

    pytest "tests/test_parity_fuzz.py::test_cross_backend_parity[SEED]"

The CSR and row-pass variants are forced by overriding the numpy kernel's
tuning (routing never changes results — that is exactly the property under
test), the sharded variants run every base on the shard thread pool.
"""

from __future__ import annotations

import random

import pytest

from repro.core.collection import (
    DeltaBatch,
    DeltaError,
    DuplicateSetError,
    SetCollection,
)
from repro.core.kernels import (
    HAS_NATIVE,
    HAS_NUMPY,
    KernelTuning,
    select_best_many,
)
from repro.core.selection import InfoGainSelector, information_gain

from conftest import build_with_tuning

N_SEEDS = 200

#: Forces the set-major CSR gather on every mask.
FORCE_CSR = KernelTuning(member_cost=0.0)
#: Forces the bit-matrix row pass on every mask.
FORCE_ROWS = KernelTuning(member_cost=1e18)


#: fuzz variants: (label, collection factory kwargs, tuning override);
#: None keeps the default routing.
def _variants():
    variants = [("bigint-sharded", dict(backend="bigint", shards=3), None)]
    if HAS_NUMPY:
        variants += [
            ("numpy", dict(backend="numpy"), None),
            ("numpy-csr", dict(backend="numpy"), FORCE_CSR),
            ("numpy-rows", dict(backend="numpy"), FORCE_ROWS),
            ("numpy-sharded", dict(backend="numpy", shards=4), None),
        ]
    if HAS_NATIVE:
        # The full equality chain bigint == numpy == native == sharded-native:
        # default routing, the forced C row sweep (the fused kernel must
        # agree even where routing would have picked the CSR gather), and
        # native sub-kernels under the sharded merge.
        variants += [
            ("native", dict(backend="native"), None),
            ("native-rows", dict(backend="native"), FORCE_ROWS),
            ("native-sharded", dict(backend="native", shards=4), None),
        ]
    return variants


def random_raw_sets(seed: int) -> list[list[int]]:
    """Seeded generator of adversarial collections.

    Mixes skewed set sizes (many small, few near-universe), occasionally an
    empty set, a singleton entity (present in exactly one set) and a
    duplicate entity (bit-for-bit the same membership as an existing one),
    and draws ``n_sets`` from word-boundary values 63/64/65 half the time.
    """
    rng = random.Random(seed)
    n_sets = rng.choice([rng.randint(2, 80), 63, 64, 65, rng.randint(2, 80)])
    universe = rng.randint(6, 48)
    sets: list[set[int]] = []
    seen: set[frozenset[int]] = set()
    if rng.random() < 0.25:
        sets.append(set())
        seen.add(frozenset())
    attempts = 0
    while len(sets) < n_sets and attempts < 40 * n_sets:
        attempts += 1
        if rng.random() < 0.2:  # a few near-universe sets
            size = rng.randint(max(1, universe // 2), universe)
        else:  # skew: mostly small sets
            size = rng.randint(1, max(1, universe // 6))
        fs = frozenset(rng.sample(range(universe), min(size, universe)))
        if fs in seen:
            continue
        seen.add(fs)
        sets.append(set(fs))
    # singleton entity: a fresh label appearing in exactly one set
    non_empty = [s for s in sets if s]
    if non_empty:
        rng.choice(non_empty).add(universe)
        # duplicate entity: a twin label co-occurring with an existing one
        twin_of = rng.randrange(universe)
        for s in sets:
            if twin_of in s:
                s.add(universe + 1 + twin_of)
    return [sorted(s) for s in sets]


def word_boundary_masks(rng: random.Random, n_sets: int, full: int) -> list[int]:
    """Sub-collection masks engineered around the 64-bit word boundaries."""
    masks = [full]
    for bit in (62, 63, 64, 65, n_sets - 1):
        if 0 < bit < n_sets:
            masks.append((1 << bit) | 1)  # two sets straddling a word
    masks.append(((1 << min(n_sets, 64)) - 1) & full)  # exactly word 0
    masks.append(full & ~((1 << min(n_sets, 64)) - 1))  # tail words only
    masks.append(full | (1 << (n_sets + 3)))  # stray bit above the matrix
    for _ in range(6):
        m = rng.getrandbits(n_sets) & full
        if m.bit_count() >= 2:
            masks.append(m)
    masks.append(1)  # single set: nothing can be informative
    return [m for m in masks if m]


def _as_list(seq) -> list:
    return [int(x) for x in seq]


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_cross_backend_parity(seed):
    raw = random_raw_sets(seed)
    ref = SetCollection(raw, backend="bigint")
    rng = random.Random(seed ^ 0x5EED)
    masks = word_boundary_masks(rng, ref.n_sets, ref.full_mask)
    probe_eids = list(range(-2, ref.n_entities + 3))  # includes unknown ids

    ref_stats = [ref.informative_stats(m) for m in masks]
    ref_counts = [ref.positive_counts(m, probe_eids) for m in masks]
    ref_parts = [ref.partition_many(m, probe_eids) for m in masks]
    ref.clear_caches()
    ref_stacked = ref.informative_stats_many(masks)

    for label, kwargs, tuning in _variants():
        coll = build_with_tuning(raw, tuning, **kwargs)
        ctx = f"[parity-fuzz seed={seed} backend={label}]"
        assert (coll.n_sets, coll.n_entities) == (ref.n_sets, ref.n_entities)
        for m, stats, counts, parts in zip(
            masks, ref_stats, ref_counts, ref_parts
        ):
            got = coll.informative_stats(m)
            assert _as_list(got[0]) == _as_list(stats[0]), (
                f"{ctx} scan_informative eids diverged on mask {m:#x}"
            )
            assert _as_list(got[1]) == _as_list(stats[1]), (
                f"{ctx} scan_informative counts diverged on mask {m:#x}"
            )
            assert coll.positive_counts(m, probe_eids) == counts, (
                f"{ctx} positive_counts diverged on mask {m:#x}"
            )
            assert coll.partition_many(m, probe_eids) == parts, (
                f"{ctx} partition_many diverged on mask {m:#x}"
            )
        coll.clear_caches()
        for got, want in zip(coll.informative_stats_many(masks), ref_stacked):
            assert _as_list(got[0]) == _as_list(want[0]), (
                f"{ctx} scan_informative_many eids diverged"
            )
            assert _as_list(got[1]) == _as_list(want[1]), (
                f"{ctx} scan_informative_many counts diverged"
            )
        assert coll.positive_counts_many(
            masks, probe_eids
        ) == ref.positive_counts_many(masks, probe_eids), (
            f"{ctx} positive_counts_many diverged"
        )


@pytest.mark.parametrize("seed", range(0, N_SEEDS, 10))
def test_candidate_hints_and_selection_parity(seed):
    """Hinted stacked scans and batched selection agree across backends."""
    raw = random_raw_sets(seed)
    ref = SetCollection(raw, backend="bigint")
    parent_eids, _ = ref.informative_stats(ref.full_mask)
    if not parent_eids:
        pytest.skip("degenerate collection: nothing informative at the root")
    children = [
        m
        for e in list(parent_eids)[:4]
        for m in ref.partition(ref.full_mask, int(e))
        if ref.count(m) >= 2
    ]
    ref.clear_caches()
    hints = [list(parent_eids)] * len(children)
    ref_hinted = ref.informative_stats_many(children, hints)
    groups = [
        (stats, ref.count(m))
        for stats, m in zip(ref_hinted, children)
        if len(stats[0])
    ]
    for primary in (None, lambda n, n1: -information_gain(n, n1)):
        ref_chosen = select_best_many(
            [g[0][0] for g in groups],
            [g[0][1] for g in groups],
            [g[1] for g in groups],
            primary,
        )
        for label, kwargs, tuning in _variants():
            coll = build_with_tuning(raw, tuning, **kwargs)
            ctx = f"[parity-fuzz seed={seed} backend={label}]"
            got = coll.informative_stats_many(children, hints)
            for g, want in zip(got, ref_hinted):
                assert _as_list(g[0]) == _as_list(want[0]), (
                    f"{ctx} hinted scan eids diverged"
                )
                assert _as_list(g[1]) == _as_list(want[1]), (
                    f"{ctx} hinted scan counts diverged"
                )
            vec_groups = [
                (stats, coll.count(m))
                for stats, m in zip(got, children)
                if len(stats[0])
            ]
            chosen = select_best_many(
                [g[0][0] for g in vec_groups],
                [g[0][1] for g in vec_groups],
                [g[1] for g in vec_groups],
                primary,
            )
            assert chosen == ref_chosen, (
                f"{ctx} select_best_many diverged (primary={primary})"
            )


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend unavailable")
def test_shard_thread_pool_agrees_after_close():
    """The shard thread pool gives the reference results, and ``close()``
    only releases the pool: the next parallel call starts a fresh one."""
    raw = random_raw_sets(7)
    ref = SetCollection(raw, backend="bigint")
    coll = SetCollection(raw, backend="numpy", shards=3)
    rng = random.Random(7)
    masks = word_boundary_masks(rng, ref.n_sets, ref.full_mask)
    kernel = coll._kernel
    for m in masks:
        assert coll.informative_entities(m) == ref.informative_entities(m)
    assert kernel._pool is not None
    kernel.close()
    assert kernel._pool is None
    coll.clear_caches()
    for m in masks:
        assert coll.informative_entities(m) == ref.informative_entities(m)
    kernel.close()


@pytest.mark.skipif(not HAS_NATIVE, reason="native extension not built")
@pytest.mark.parametrize("seed", range(0, N_SEEDS, 25))
def test_simd_tier_parity(seed):
    """Every SIMD tier the build/CPU carries is bit-identical to bigint.

    The pinned tier is process-global, so the loop pins each tier in turn
    and replays the same masks over fresh native collections (plain and
    sharded); the auto tier is restored afterwards.  Replay a failure with
    the seed in the test id.
    """
    from repro.core.kernels._native import ext as _ext

    raw = random_raw_sets(seed)
    ref = SetCollection(raw, backend="bigint")
    rng = random.Random(seed ^ 0x51D)
    masks = word_boundary_masks(rng, ref.n_sets, ref.full_mask)
    ref_stats = [ref.informative_stats(m) for m in masks]
    ref.clear_caches()
    ref_stacked = ref.informative_stats_many(masks)
    auto = _ext.simd_level()
    variants = [
        ("native", dict(backend="native")),
        ("native-sharded", dict(backend="native", shards=4)),
    ]
    try:
        for tier in _ext.available_simd_levels():
            _ext.set_simd_level(tier)
            for label, kwargs in variants:
                coll = SetCollection(raw, **kwargs)
                ctx = f"[simd-fuzz seed={seed} tier={tier} backend={label}]"
                for m, want in zip(masks, ref_stats):
                    got = coll.informative_stats(m)
                    assert _as_list(got[0]) == _as_list(want[0]), (
                        f"{ctx} eids diverged on mask {m:#x}"
                    )
                    assert _as_list(got[1]) == _as_list(want[1]), (
                        f"{ctx} counts diverged on mask {m:#x}"
                    )
                coll.clear_caches()
                for got, want in zip(
                    coll.informative_stats_many(masks), ref_stacked
                ):
                    assert _as_list(got[0]) == _as_list(want[0]), (
                        f"{ctx} stacked eids diverged"
                    )
                    assert _as_list(got[1]) == _as_list(want[1]), (
                        f"{ctx} stacked counts diverged"
                    )
    finally:
        _ext.set_simd_level(auto)


# --------------------------------------------------------------------- #
# Delta fuzz: epoch chains vs from-scratch rebuilds
# --------------------------------------------------------------------- #

N_DELTA_SEEDS = 120
DELTA_STEPS = 4


def _delta_variants():
    """Backend variants every delta chain replays over (all four families).

    ``(label, collection kwargs, tuning override)``.  ``numpy-csr`` forces
    the set-major route; the override rides along every ``from_delta``, so
    each evolved epoch builds its own CSR mirror, which the chain test
    holds against a fresh build's.
    """
    variants = [
        ("bigint", dict(backend="bigint"), None),
        ("bigint-sharded", dict(backend="bigint", shards=3), None),
    ]
    if HAS_NUMPY:
        variants += [
            ("numpy", dict(backend="numpy"), None),
            ("numpy-csr", dict(backend="numpy"), FORCE_CSR),
            ("numpy-sharded", dict(backend="numpy", shards=4), None),
        ]
    if HAS_NATIVE:
        variants += [
            ("native", dict(backend="native"), None),
            ("native-sharded", dict(backend="native", shards=4), None),
        ]
    return variants


def random_delta_batch(rng: random.Random, coll: SetCollection, tag: str) -> DeltaBatch:
    """One seeded random mutation batch against the current collection.

    Mixes removals, additions (sometimes reusing a just-removed name — the
    atomic-replacement path), membership edits, and occasionally fresh
    entity labels (universe growth).  Drawn only from deterministic
    orderings so the same seed replays the same chain.
    """
    batch = DeltaBatch()
    names = [coll.name_of(i) for i in range(coll.n_sets)]
    labels = [coll.universe.label(e) for e in range(coll.n_entities)]
    removed: list[str] = []
    if coll.n_sets > 3 and rng.random() < 0.7:
        removed = rng.sample(names, rng.randint(1, min(3, coll.n_sets - 2)))
        batch.remove_sets(removed)
    added_names: set[str] = set()
    for j in range(rng.randint(0, 3)):
        size = rng.randint(1, max(2, len(labels) // 3))
        members = set(rng.sample(labels, min(size, len(labels))))
        if rng.random() < 0.4:
            members.add(f"e{tag}.{j}")  # a fresh entity label
        if removed and rng.random() < 0.3:
            name = removed[0]  # replace the removed slot atomically
        else:
            name = f"D{tag}.{j}"
        if name in added_names:
            continue
        added_names.add(name)
        batch.add_sets({name: sorted(members, key=repr)})
    survivors = [n for n in names if n not in removed]
    n_updates = min(len(survivors), rng.randint(0, 2))
    for name in rng.sample(survivors, n_updates):
        current = [
            coll.universe.label(e) for e in sorted(coll._sets[coll.index_of(name)])
        ]
        drop = rng.sample(current, min(len(current), rng.randint(0, 2)))
        pool = [x for x in labels if x not in set(current)]
        gain = rng.sample(pool, min(len(pool), rng.randint(0, 2)))
        if rng.random() < 0.2:
            gain = list(gain) + [f"u{tag}.x"]
        if drop or gain:
            batch.update_membership(name, add=gain, remove=drop)
    return batch


def _rebuild(
    coll: SetCollection, backend_kwargs: dict, tuning=None
) -> SetCollection:
    """From-scratch rebuild of ``coll``'s exact content on a shared universe.

    Interning into the *same* universe keeps entity ids identical, which
    is what makes stats (and packed matrices) directly comparable.
    """
    return build_with_tuning(
        [[coll.universe.label(e) for e in sorted(coll._sets[i])]
         for i in range(coll.n_sets)],
        tuning,
        names=list(coll.names),
        universe=coll.universe,
        **backend_kwargs,
    )


def _csr_members(kernel) -> list[list[int]]:
    """The set-major mirror as sorted member rows per set."""
    indptr = kernel._set_indptr.tolist()
    flat = kernel._set_flat_rows.tolist()
    return [sorted(flat[lo:hi]) for lo, hi in zip(indptr, indptr[1:])]


def _assert_stats_equal(coll, ref, masks, ctx):
    for m in masks:
        got, want = coll.informative_stats(m), ref.informative_stats(m)
        assert _as_list(got[0]) == _as_list(want[0]), (
            f"{ctx} informative eids diverged on mask {m:#x}"
        )
        assert _as_list(got[1]) == _as_list(want[1]), (
            f"{ctx} informative counts diverged on mask {m:#x}"
        )
    probe = list(range(-1, ref.n_entities + 2))
    for m in masks[:4]:
        assert coll.positive_counts(m, probe) == ref.positive_counts(m, probe), (
            f"{ctx} positive_counts diverged on mask {m:#x}"
        )


@pytest.mark.parametrize("seed", range(N_DELTA_SEEDS))
def test_delta_chain_matches_rebuild(seed):
    """Chained ``apply_delta`` is indistinguishable from a fresh build.

    One seeded mutation chain replays over every backend family; after
    each step the evolved collection must match a from-scratch rebuild of
    the same content — names, members, informative stats, counts — and
    the vectorized backends must match the rebuilt packed bit-matrix
    *byte for byte*.
    """
    raw = random_raw_sets(seed)
    rng = random.Random(seed ^ 0xDE17A)
    evolved = {
        label: build_with_tuning(raw, tuning, **kwargs)
        for label, kwargs, tuning in _delta_variants()
    }
    variant_of = {
        label: (kwargs, tuning) for label, kwargs, tuning in _delta_variants()
    }
    driver = evolved["bigint"]
    for step in range(DELTA_STEPS):
        batch = random_delta_batch(rng, driver, f"{seed}.{step}")
        outcomes = {}
        for label, coll in evolved.items():
            try:
                outcomes[label] = coll.apply_delta(batch)
            except (DeltaError, DuplicateSetError) as exc:
                outcomes[label] = type(exc).__name__
        kinds = {repr(o) if isinstance(o, str) else "ok" for o in outcomes.values()}
        assert len(kinds) == 1, (
            f"[delta-fuzz seed={seed} step={step}] backends disagreed on "
            f"whether the batch applies: {outcomes}"
        )
        if isinstance(outcomes["bigint"], str):
            continue  # invalid batch: atomicity keeps every epoch unchanged
        evolved = outcomes
        driver = evolved["bigint"]
    # Epoch bookkeeping: every applied non-empty batch bumped by one.
    applied = driver.epoch
    assert 0 <= applied <= DELTA_STEPS
    mask_rng = random.Random(seed ^ 0x0FF5E7)
    masks = word_boundary_masks(mask_rng, driver.n_sets, driver.full_mask)
    for label, coll in evolved.items():
        ctx = f"[delta-fuzz seed={seed} backend={label}]"
        kwargs, tuning = variant_of[label]
        rebuilt = _rebuild(driver, kwargs, tuning)
        assert coll.epoch == applied, f"{ctx} epoch drifted"
        assert coll.names == rebuilt.names, f"{ctx} names diverged"
        assert [coll._sets[i] for i in range(coll.n_sets)] == [
            rebuilt._sets[i] for i in range(rebuilt.n_sets)
        ], f"{ctx} set contents diverged"
        assert coll._entity_masks == rebuilt._entity_masks, (
            f"{ctx} entity masks diverged"
        )
        if tuning is not None:
            assert coll._kernel._tuning.member_cost == tuning.member_cost, (
                f"{ctx} override lost"
            )
            coll._kernel._ensure_set_rows()
            assert _csr_members(coll._kernel) == _csr_members(
                rebuilt._kernel
            ), f"{ctx} set-major mirror diverged from the rebuild"
        _assert_stats_equal(coll, rebuilt, masks, ctx)
        if label in ("numpy", "numpy-csr", "native"):
            assert (
                coll._kernel._matrix.tobytes()
                == rebuilt._kernel._matrix.tobytes()
            ), f"{ctx} packed bit-matrix diverged from the rebuild"


@pytest.mark.parametrize("seed", range(0, N_DELTA_SEEDS, 10))
def test_delta_chain_golden_transcripts(seed):
    """Discovery transcripts on an evolved epoch equal a rebuild's.

    The end-to-end form of the rebuild equivalence: running the same
    sessions (selector, target, initial examples) over the delta-evolved
    collection and over its from-scratch rebuild must produce identical
    transcripts, question for question.
    """
    from repro.core.discovery import DiscoverySession
    from repro.oracle.user import SimulatedUser

    raw = random_raw_sets(seed)
    for label, kwargs, _tuning in _delta_variants():
        if label not in ("bigint", "numpy", "native"):
            continue
        # Re-seeded per backend so every family replays the same chain.
        rng = random.Random(seed ^ 0x90A1)
        evolved = SetCollection(raw, **kwargs)
        for step in range(DELTA_STEPS):
            batch = random_delta_batch(rng, evolved, f"{seed}.{step}")
            try:
                evolved = evolved.apply_delta(batch)
            except (DeltaError, DuplicateSetError):
                continue
        rebuilt = _rebuild(evolved, kwargs)
        for target in range(0, evolved.n_sets, max(1, evolved.n_sets // 3)):
            runs = []
            for c in (evolved, rebuilt):
                session = DiscoverySession(c, InfoGainSelector())
                result = session.run(SimulatedUser(c, target_index=target))
                runs.append(result)
            a, b = runs
            assert [
                (i.entity, i.answer, i.candidates_before, i.candidates_after)
                for i in a.transcript
            ] == [
                (i.entity, i.answer, i.candidates_before, i.candidates_after)
                for i in b.transcript
            ], f"[delta-fuzz seed={seed} backend={label}] transcript diverged"
            assert a.resolved == b.resolved and a.candidates == b.candidates
