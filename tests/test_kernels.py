"""Cross-backend parity tests for the entity-statistics kernels.

The numpy backend must reproduce the big-int reference *exactly*: same
counts, same partition masks, same informative-entity lists and — because
every selector tie-breaks deterministically — the same selected entity on
every sub-collection, including engineered ties and "don't know"
exclusions.  Randomized collections keep both backends honest beyond the
worked examples.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bounds import AD, H
from repro.core.collection import SetCollection
from repro.core.batch import select_batch
from repro.core.gain_k import GainKSelector, UnprunedKLPSelector, lb_k
from repro.core.kernels import (
    BackendUnavailableError,
    HAS_NATIVE,
    HAS_NUMPY,
    KernelTuning,
    available_backends,
    get_tuning,
    resolve_backend_name,
    set_tuning,
)
from repro.core.kernels import tuning as tuning_mod
from repro.core.lookahead import KLPSelector
from repro.core.selection import (
    IndistinguishablePairsSelector,
    InfoGainSelector,
    LB1Selector,
    MostEvenSelector,
    NoInformativeEntityError,
)

from conftest import FIG1_SETS

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy backend unavailable"
)

BOTH_BACKENDS = (
    ["bigint"]
    + (["numpy"] if HAS_NUMPY else [])
    + (["native"] if HAS_NATIVE else [])
)


def random_sets(rng: random.Random, n_sets: int, universe: int) -> list[list[int]]:
    """Unique random sets over a small universe (dense, tie-prone)."""
    seen: set[frozenset[int]] = set()
    out: list[list[int]] = []
    while len(out) < n_sets:
        size = rng.randint(2, max(3, universe // 2))
        fs = frozenset(rng.sample(range(universe), size))
        if fs in seen:
            continue
        seen.add(fs)
        out.append(sorted(fs))
    return out


def backend_pair(raw: list[list[int]]) -> tuple[SetCollection, SetCollection]:
    """The same sets under the reference and the vectorized backend."""
    return (
        SetCollection(raw, backend="bigint"),
        SetCollection(raw, backend="numpy"),
    )


def random_masks(rng: random.Random, full: int, count: int) -> list[int]:
    masks = [full]
    while len(masks) < count:
        m = rng.getrandbits(full.bit_length()) & full
        if m.bit_count() >= 2:
            masks.append(m)
    return masks


# --------------------------------------------------------------------- #
# Backend selection plumbing
# --------------------------------------------------------------------- #


class TestBackendSelection:
    def test_bigint_always_available(self):
        assert "bigint" in available_backends()

    def test_explicit_bigint(self):
        coll = SetCollection.from_named_sets(FIG1_SETS, backend="bigint")
        assert coll.backend == "bigint"

    @needs_numpy
    def test_explicit_numpy(self):
        coll = SetCollection.from_named_sets(FIG1_SETS, backend="numpy")
        assert coll.backend == "numpy"

    @needs_numpy
    def test_auto_small_collection_prefers_bigint(self, monkeypatch):
        # fig1's bit-matrix is far below the auto crossover; with no
        # explicit request from anywhere, auto keeps the cheaper reference
        # backend.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        coll = SetCollection.from_named_sets(FIG1_SETS)
        assert coll.n_sets * coll.n_entities < tuning_mod.AUTO_MIN_CELLS
        assert coll.backend == "bigint"

    @needs_numpy
    def test_env_var_forces_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert SetCollection.from_named_sets(FIG1_SETS).backend == "numpy"
        monkeypatch.setenv("REPRO_BACKEND", "bigint")
        assert SetCollection.from_named_sets(FIG1_SETS).backend == "bigint"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend_name("fortran")

    @pytest.mark.skipif(HAS_NUMPY, reason="only meaningful without numpy")
    def test_numpy_request_without_numpy_raises(self):  # pragma: no cover
        with pytest.raises(BackendUnavailableError):
            resolve_backend_name("numpy")


# --------------------------------------------------------------------- #
# Batched API parity
# --------------------------------------------------------------------- #


@needs_numpy
class TestBatchedStatsParity:
    @pytest.fixture(scope="class")
    def pair(self):
        rng = random.Random(101)
        return backend_pair(random_sets(rng, 60, 24))

    def test_positive_counts_match(self, pair):
        ref, vec = pair
        rng = random.Random(7)
        eids = list(range(-1, 30))  # includes unknown ids on both ends
        for mask in random_masks(rng, ref.full_mask, 25):
            assert ref.positive_counts(mask, eids) == vec.positive_counts(
                mask, eids
            )

    def test_positive_counts_match_reference_loop(self, pair):
        ref, vec = pair
        mask = ref.full_mask
        eids = list(range(ref.n_entities))
        expected = [ref.positive_count(mask, e) for e in eids]
        assert vec.positive_counts(mask, eids) == expected

    def test_partition_many_match(self, pair):
        ref, vec = pair
        rng = random.Random(8)
        eids = list(range(26))
        for mask in random_masks(rng, ref.full_mask, 25):
            ref_parts = ref.partition_many(mask, eids)
            vec_parts = vec.partition_many(mask, eids)
            assert ref_parts == vec_parts
            for pos, neg in vec_parts:
                assert pos & neg == 0
                assert pos | neg == mask

    def test_partition_many_matches_partition(self, pair):
        _, vec = pair
        eids = list(range(24))
        for eid, pair_masks in zip(
            eids, vec.partition_many(vec.full_mask, eids)
        ):
            assert pair_masks == vec.partition(vec.full_mask, eid)

    def test_informative_entities_match(self, pair):
        ref, vec = pair
        rng = random.Random(9)
        for mask in random_masks(rng, ref.full_mask, 25):
            assert ref.informative_entities(mask) == vec.informative_entities(
                mask
            )

    def test_informative_entities_sorted_by_entity_id(self, pair):
        _, vec = pair
        eids = [e for e, _ in vec.informative_entities(vec.full_mask)]
        assert eids == sorted(eids)

    def test_candidate_scan_preserves_order(self, pair):
        ref, vec = pair
        candidates = [5, 3, 9, 1, 400]  # 400 unknown
        assert ref.informative_entities(
            ref.full_mask, candidates
        ) == vec.informative_entities(vec.full_mask, candidates)

    def test_stray_high_mask_bits_are_tolerated(self, pair):
        ref, vec = pair
        mask = ref.full_mask | (1 << (ref.n_sets + 5))
        eids = list(range(10))
        assert ref.positive_counts(mask, eids) == vec.positive_counts(
            mask, eids
        )


# --------------------------------------------------------------------- #
# Stacked-mask API parity (multi-session serving kernels)
# --------------------------------------------------------------------- #


@needs_numpy
class TestStackedMaskParity:
    @pytest.fixture(scope="class")
    def pair(self):
        rng = random.Random(211)
        return backend_pair(random_sets(rng, 70, 26))

    def test_scan_informative_many_matches_per_mask(self, pair):
        ref, vec = pair
        rng = random.Random(3)
        masks = random_masks(rng, ref.full_mask, 20)
        for coll in (ref, vec):
            coll.clear_caches()
            singles = [
                [list(seq) for seq in coll.informative_stats(mask)]
                for mask in masks
            ]
            coll.clear_caches()
            batched = coll.informative_stats_many(masks)
            for (eids, counts), (s_eids, s_counts) in zip(batched, singles):
                assert list(eids) == s_eids
                assert list(counts) == s_counts

    def test_scan_informative_many_cross_backend(self, pair):
        ref, vec = pair
        rng = random.Random(4)
        masks = random_masks(rng, ref.full_mask, 20)
        ref.clear_caches()
        vec.clear_caches()
        ref_stats = ref.informative_stats_many(masks)
        vec_stats = vec.informative_stats_many(masks)
        for (re, rc), (ve, vcnt) in zip(ref_stats, vec_stats):
            assert list(re) == list(ve)
            assert list(rc) == list(vcnt)

    def test_candidate_hints_do_not_change_results(self, pair):
        # The hint contract: a superset of the informative entities in
        # ascending order yields exactly the full-scan result.
        ref, vec = pair
        rng = random.Random(5)
        parent_masks = random_masks(rng, ref.full_mask, 10)
        for coll in (ref, vec):
            for parent in parent_masks:
                coll.clear_caches()
                parent_eids, _ = coll.informative_stats(parent)
                # narrow by the first informative entity -> child mask
                child, _ = coll.partition(parent, int(parent_eids[0]))
                if coll.count(child) < 2:
                    continue
                coll.clear_caches()
                expected = coll.informative_stats(child)
                coll.clear_caches()
                hinted = coll.informative_stats_many(
                    [child], [parent_eids]
                )[0]
                assert list(hinted[0]) == list(expected[0])
                assert list(hinted[1]) == list(expected[1])

    def test_scan_many_primes_the_cache(self, pair):
        _, vec = pair
        vec.clear_caches()
        masks = [vec.full_mask]
        vec.informative_stats_many(masks)
        assert vec.is_cached(vec.full_mask)

    def test_scan_many_deduplicates_repeated_masks(self, pair):
        ref, _ = pair
        ref.clear_caches()
        stats = ref.informative_stats_many([ref.full_mask, ref.full_mask])
        assert stats[0] is stats[1]

    def test_positive_counts_many_matches_per_mask(self, pair):
        ref, vec = pair
        rng = random.Random(6)
        masks = random_masks(rng, ref.full_mask, 12)
        eids = list(range(-1, 30))  # includes unknown ids
        for coll in (ref, vec):
            batched = coll.positive_counts_many(masks, eids)
            for mask, counts in zip(masks, batched):
                assert list(counts) == list(coll.positive_counts(mask, eids))

    def test_positive_counts_many_cross_backend(self, pair):
        ref, vec = pair
        rng = random.Random(7)
        masks = random_masks(rng, ref.full_mask, 12)
        eids = list(range(30))
        ref_counts = ref.positive_counts_many(masks, eids)
        vec_counts = vec.positive_counts_many(masks, eids)
        for rc, vcnt in zip(ref_counts, vec_counts):
            assert list(rc) == list(vcnt)

    def test_empty_inputs(self, pair):
        ref, vec = pair
        for coll in (ref, vec):
            assert coll.informative_stats_many([]) == []
            assert coll.positive_counts_many([], [1, 2]) == []


# --------------------------------------------------------------------- #
# Batched scoring parity (select_best_many)
# --------------------------------------------------------------------- #


@needs_numpy
class TestSelectBestManyParity:
    def test_matches_select_best_per_group(self):
        import numpy as np

        from repro.core.kernels import select_best, select_best_many

        rng = random.Random(41)
        eids_list, counts_list, ns = [], [], []
        for _ in range(30):
            n = rng.randint(2, 50)
            size = rng.randint(1, 12)
            eids = np.array(
                rng.sample(range(200), size), dtype=np.int64
            )
            counts = np.array(
                [rng.randint(1, n - 1) for _ in range(size)],
                dtype=np.int64,
            )
            eids_list.append(eids)
            counts_list.append(counts)
            ns.append(n)
        batched = select_best_many(eids_list, counts_list, ns)
        expected = [
            select_best(e.tolist(), c.tolist(), n)
            for e, c, n in zip(eids_list, counts_list, ns)
        ]
        assert batched == expected
        assert batched == [
            select_best(e, c, n)
            for e, c, n in zip(eids_list, counts_list, ns)
        ]

    def test_list_inputs_fall_back_to_loop(self):
        from repro.core.kernels import select_best, select_best_many

        eids_list = [[3, 5, 9], [1, 2]]
        counts_list = [[1, 2, 3], [2, 2]]
        ns = [4, 4]
        assert select_best_many(eids_list, counts_list, ns) == [
            select_best(e, c, n)
            for e, c, n in zip(eids_list, counts_list, ns)
        ]

    def test_empty_group_list(self):
        from repro.core.kernels import select_best_many

        assert select_best_many([], [], []) == []


# --------------------------------------------------------------------- #
# Selection parity
# --------------------------------------------------------------------- #


def all_selectors():
    return [
        MostEvenSelector(),
        InfoGainSelector(),
        IndistinguishablePairsSelector(),
        LB1Selector(AD),
        LB1Selector(H),
        GainKSelector(k=2),
        KLPSelector(k=2, metric=AD),
        KLPSelector(k=2, metric=H),
        KLPSelector(k=3, metric=AD, q=3),
        KLPSelector(k=3, metric=AD, q=2, variable=True),
        UnprunedKLPSelector(k=2, metric=AD),
    ]


@needs_numpy
class TestSelectionParity:
    @pytest.mark.parametrize(
        "seed,n_sets,universe", [(1, 40, 20), (2, 25, 12), (3, 80, 30)]
    )
    def test_selectors_agree_on_random_collections(
        self, seed, n_sets, universe
    ):
        rng = random.Random(seed)
        ref, vec = backend_pair(random_sets(rng, n_sets, universe))
        masks = random_masks(rng, ref.full_mask, 8)
        for selector in all_selectors():
            for mask in masks:
                selector.reset()
                chosen_ref = selector.select(ref, mask)
                selector.reset()
                chosen_vec = selector.select(vec, mask)
                assert chosen_ref == chosen_vec, (
                    f"{selector.name} diverged on mask {mask:#x}"
                )

    def test_selectors_agree_on_fig1(self):
        ref = SetCollection.from_named_sets(FIG1_SETS, backend="bigint")
        vec = SetCollection.from_named_sets(FIG1_SETS, backend="numpy")
        for selector in all_selectors():
            selector.reset()
            chosen = selector.select(ref, ref.full_mask)
            selector.reset()
            assert selector.select(vec, vec.full_mask) == chosen

    def test_fig1_most_even_worked_example(self):
        # Sec. 3 worked example: 'c' and 'd' both split Fig. 1 into 3/4,
        # the most even split.  Which of the two wins the entity-id
        # tie-break depends on interning order (FIG1_SETS holds literal
        # sets, so label order is hash-randomized per process), but within
        # one process every backend must pick the same one: the lower id.
        for backend in BOTH_BACKENDS:
            coll = SetCollection.from_named_sets(FIG1_SETS, backend=backend)
            chosen = MostEvenSelector().select(coll, coll.full_mask)
            assert coll.universe.label(chosen) in {"c", "d"}
            assert chosen == min(
                coll.universe.id_of("c"), coll.universe.id_of("d")
            )
            assert coll.positive_count(coll.full_mask, chosen) == 3

    def test_tie_break_parity_on_engineered_ties(self):
        # Singleton sets: every entity splits 1/(n-1) — all tied; the
        # deterministic entity-id tie-break must agree across backends.
        raw = [[i] for i in range(12)]
        ref, vec = backend_pair(raw)
        for selector in all_selectors():
            selector.reset()
            chosen_ref = selector.select(ref, ref.full_mask)
            selector.reset()
            assert selector.select(vec, vec.full_mask) == chosen_ref

    def test_exclusion_parity(self):
        # "Don't know" answers (Sec. 6) remove entities; backends must
        # agree on the runner-up too.
        rng = random.Random(11)
        ref, vec = backend_pair(random_sets(rng, 30, 15))
        for selector in all_selectors():
            selector.reset()
            first = selector.select(ref, ref.full_mask)
            exclude = frozenset({first})
            selector.reset()
            chosen_ref = selector.select(ref, ref.full_mask, exclude=exclude)
            selector.reset()
            chosen_vec = selector.select(vec, vec.full_mask, exclude=exclude)
            assert chosen_ref == chosen_vec
            assert chosen_ref != first

    def test_everything_excluded_raises_on_both(self):
        ref, vec = backend_pair([[0, 1], [1, 2], [2, 3]])
        exclude = frozenset(range(4))
        for coll in (ref, vec):
            with pytest.raises(NoInformativeEntityError):
                MostEvenSelector().select(coll, coll.full_mask, exclude=exclude)

    def test_lb_k_parity(self):
        rng = random.Random(21)
        ref, vec = backend_pair(random_sets(rng, 16, 10))
        for metric in (AD, H):
            for k in (0, 1, 2, 3):
                assert lb_k(ref, ref.full_mask, k, metric) == lb_k(
                    vec, vec.full_mask, k, metric
                )

    def test_klp_lower_bound_parity(self):
        rng = random.Random(22)
        ref, vec = backend_pair(random_sets(rng, 20, 12))
        for metric in (AD, H):
            sel_ref = KLPSelector(k=2, metric=metric)
            sel_vec = KLPSelector(k=2, metric=metric)
            assert sel_ref.lower_bound(ref) == sel_vec.lower_bound(vec)


# --------------------------------------------------------------------- #
# Routing constants and the set-major mirror
# --------------------------------------------------------------------- #


class TestRoutingConstants:
    @pytest.mark.parametrize("env", [None, "off", "auto", "on"])
    def test_reset_restores_fixed_defaults(self, monkeypatch, env):
        # Routing never depends on the process: no measurement, whatever
        # the environment says.
        if env is None:
            monkeypatch.delenv("REPRO_TUNING", raising=False)
        else:
            monkeypatch.setenv("REPRO_TUNING", env)
        set_tuning(None)
        assert get_tuning() == tuning_mod.DEFAULT_TUNING
        assert get_tuning() == KernelTuning(
            member_cost=tuning_mod.DEFAULT_MEMBER_COST
        )
        assert get_tuning().source == "default"

    def test_override_applies_until_reset(self):
        set_tuning(KernelTuning(member_cost=0.0))
        try:
            assert get_tuning().member_cost == 0.0
            assert get_tuning().source == "override"
        finally:
            set_tuning(None)
        assert get_tuning() is tuning_mod.DEFAULT_TUNING


@needs_numpy
class TestSetMajorMirror:
    def _kernel(self):
        rng = random.Random(41)
        raw = [rng.sample(range(3906), rng.randint(2, 9)) for _ in range(3000)]
        return SetCollection(raw, backend="numpy", dedupe=True).kernel

    def test_mirror_lists_each_sets_member_rows(self):
        kernel = self._kernel()
        kernel._ensure_set_rows()
        indptr = kernel._set_indptr.tolist()
        flat = kernel._set_flat_rows.tolist()
        assert len(indptr) == kernel._n_sets + 1
        for i, members in enumerate(kernel._sets):
            rows = sorted(flat[indptr[i] : indptr[i + 1]])
            assert rows == sorted(kernel._row_of[e] for e in members)

    def test_mirror_build_memory_tracks_membership(self):
        # The mirror is built from the sets, never from a byte-per-cell
        # unpacking of the (n_entities x n_sets) matrix.
        import tracemalloc

        kernel = self._kernel()
        membership = sum(len(s) for s in kernel._sets)
        tracemalloc.start()
        try:
            kernel._ensure_set_rows()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 32 * (membership + kernel._n_sets) + (1 << 16)
        cells = len(kernel._row_eids) * kernel._n_sets
        assert bound < cells  # the bound would catch a per-cell build
        assert peak < bound, f"mirror build peaked at {peak} bytes"


# --------------------------------------------------------------------- #
# Batch (multiple-choice) parity
# --------------------------------------------------------------------- #


@needs_numpy
class TestBatchParity:
    def test_select_batch_agrees(self):
        rng = random.Random(31)
        ref, vec = backend_pair(random_sets(rng, 30, 16))
        for size in (1, 2, 3):
            assert select_batch(ref, ref.full_mask, size) == select_batch(
                vec, vec.full_mask, size
            )

    def test_select_batch_agrees_on_fig1(self):
        ref = SetCollection.from_named_sets(FIG1_SETS, backend="bigint")
        vec = SetCollection.from_named_sets(FIG1_SETS, backend="numpy")
        assert select_batch(ref, ref.full_mask, 3) == select_batch(
            vec, vec.full_mask, 3
        )
