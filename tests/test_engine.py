"""Tests for repro.serve.engine (multi-session batched discovery).

The engine's contract is *bit-identical transcripts*: running N sessions
through :class:`SessionEngine` must produce, for every session, exactly the
transcript, final candidates and question count that a sequential
``DiscoverySession.run`` produces — for every selector, on both kernel
backends, with and without "don't know" answers.  On top of parity, the
pull-style serving API, halting conditions and cache-release behaviour are
covered.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.bounds import AD, H
from repro.core.collection import SetCollection
from repro.core.discovery import DiscoverySession
from repro.core.kernels import HAS_NATIVE, HAS_NUMPY
from repro.core.lookahead import KLPSelector
from repro.core.selection import (
    IndistinguishablePairsSelector,
    InfoGainSelector,
    LB1Selector,
    MostEvenSelector,
    RandomSelector,
)
from repro.data.synthetic import SyntheticConfig, generate_collection
from repro.oracle import SimulatedUser, UnsureUser
from repro.serve import SessionEngine

from conftest import FIG1_SETS

BOTH_BACKENDS = (
    ["bigint"]
    + (["numpy"] if HAS_NUMPY else [])
    + (["native"] if HAS_NATIVE else [])
)

SELECTOR_FACTORIES = [
    MostEvenSelector,
    InfoGainSelector,
    IndistinguishablePairsSelector,
    lambda: LB1Selector(AD),  # not most-even: engine falls back to select()
    lambda: KLPSelector(k=2),  # non-batchable: engine falls back to select()
    lambda: LB1Selector(H),
]


def make_collection(backend: str, n_sets: int = 120, seed: int = 3):
    return generate_collection(
        SyntheticConfig(
            n_sets=n_sets, size_lo=10, size_hi=16, overlap=0.8, seed=seed
        ),
        backend=backend,
    )


def sequential_results(collection, factory, targets, oracle_factory):
    results = []
    for i, target in enumerate(targets):
        session = DiscoverySession(collection, factory())
        results.append(session.run(oracle_factory(collection, target, i)))
    return results


def engine_results(collection, factory, targets, oracle_factory):
    engine = SessionEngine(collection)
    for i, target in enumerate(targets):
        engine.add(
            DiscoverySession(collection, factory()),
            oracle=oracle_factory(collection, target, i),
            key=i,
        )
    results = engine.run()
    return [results[i] for i in range(len(targets))], engine


def perfect_oracle(collection, target, _i):
    return SimulatedUser(collection, target_index=target)


def unsure_oracle(collection, target, i):
    return UnsureUser(collection, 0.25, target_index=target, seed=100 + i)


# --------------------------------------------------------------------- #
# Transcript parity engine vs sequential
# --------------------------------------------------------------------- #


class TestEngineParity:
    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    @pytest.mark.parametrize("factory", SELECTOR_FACTORIES)
    def test_transcripts_bit_identical(self, backend, factory):
        collection = make_collection(backend)
        rng = random.Random(17)
        targets = [rng.randrange(collection.n_sets) for _ in range(24)]
        collection.clear_caches()
        seq = sequential_results(collection, factory, targets, perfect_oracle)
        collection.clear_caches()
        eng, _ = engine_results(collection, factory, targets, perfect_oracle)
        for i in range(len(targets)):
            assert eng[i].transcript == seq[i].transcript
            assert eng[i].candidates == seq[i].candidates
            assert eng[i].resolved and eng[i].target == seq[i].target

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_parity_with_dont_know_answers(self, backend):
        # "Don't know" answers exclude entities per session; grouping must
        # respect each session's exclusion set.
        collection = make_collection(backend, n_sets=60, seed=5)
        rng = random.Random(23)
        targets = [rng.randrange(collection.n_sets) for _ in range(16)]
        collection.clear_caches()
        seq = sequential_results(
            collection, MostEvenSelector, targets, unsure_oracle
        )
        collection.clear_caches()
        eng, _ = engine_results(
            collection, MostEvenSelector, targets, unsure_oracle
        )
        for i in range(len(targets)):
            assert eng[i].transcript == seq[i].transcript
            assert eng[i].candidates == seq[i].candidates

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_parity_with_per_session_random_selectors(self, backend):
        # Each session owns its own seeded RandomSelector; the engine must
        # not share or reorder their rng draws.
        collection = make_collection(backend, seed=9)
        rng = random.Random(31)
        targets = [rng.randrange(collection.n_sets) for _ in range(10)]
        collection.clear_caches()
        seq = []
        for i, t in enumerate(targets):
            session = DiscoverySession(collection, RandomSelector(seed=i))
            seq.append(session.run(perfect_oracle(collection, t, i)))
        collection.clear_caches()
        engine = SessionEngine(collection)
        for i, t in enumerate(targets):
            engine.add(
                DiscoverySession(collection, RandomSelector(seed=i)),
                oracle=perfect_oracle(collection, t, i),
                key=i,
            )
        res = engine.run()
        for i in range(len(targets)):
            assert res[i].transcript == seq[i].transcript

    def test_parity_with_initial_example_sets(self):
        collection = SetCollection.from_named_sets(FIG1_SETS)
        seq = []
        for target in range(collection.n_sets):
            session = DiscoverySession(
                collection, MostEvenSelector(), initial={"a", "b"}
            )
            seq.append(
                session.run(SimulatedUser(collection, target_index=target))
            )
        engine = SessionEngine(collection)
        for target in range(collection.n_sets):
            engine.add(
                DiscoverySession(
                    collection, MostEvenSelector(), initial={"a", "b"}
                ),
                oracle=SimulatedUser(collection, target_index=target),
                key=target,
            )
        res = engine.run()
        for target in range(collection.n_sets):
            assert res[target].transcript == seq[target].transcript
            assert res[target].candidates == seq[target].candidates

    def test_parity_with_max_questions(self):
        collection = make_collection("bigint", n_sets=80, seed=7)
        targets = list(range(12))
        seq = []
        for i, t in enumerate(targets):
            session = DiscoverySession(
                collection, InfoGainSelector(), max_questions=3
            )
            seq.append(session.run(perfect_oracle(collection, t, i)))
        engine = SessionEngine(collection)
        for i, t in enumerate(targets):
            engine.add(
                DiscoverySession(
                    collection, InfoGainSelector(), max_questions=3
                ),
                oracle=perfect_oracle(collection, t, i),
                key=i,
            )
        res = engine.run()
        for i in range(len(targets)):
            assert res[i].n_questions <= 3
            assert res[i].transcript == seq[i].transcript

    def test_heterogeneous_selectors_in_one_engine(self):
        collection = make_collection("bigint", n_sets=60, seed=11)
        factories = [
            MostEvenSelector,
            InfoGainSelector,
            lambda: KLPSelector(k=2),
        ]
        targets = [4, 17, 33]
        seq = [
            DiscoverySession(collection, f()).run(
                SimulatedUser(collection, target_index=t)
            )
            for f, t in zip(factories, targets)
        ]
        engine = SessionEngine(collection)
        for i, (f, t) in enumerate(zip(factories, targets)):
            engine.add(
                DiscoverySession(collection, f()),
                oracle=SimulatedUser(collection, target_index=t),
                key=i,
            )
        res = engine.run()
        for i in range(3):
            assert res[i].transcript == seq[i].transcript


# --------------------------------------------------------------------- #
# Golden transcripts: serialized engine output vs sequential, sharded too
# --------------------------------------------------------------------- #


def serialize_results(results) -> bytes:
    """Canonical byte serialization of a list of DiscoveryResults.

    Everything observable about the sessions goes in — full transcripts,
    final candidates, question counts — so byte equality is transcript
    equality with no wiggle room.
    """
    payload = [
        {
            "candidates": r.candidates,
            "n_questions": r.n_questions,
            "transcript": [
                [i.entity, i.answer, i.candidates_before, i.candidates_after]
                for i in r.transcript
            ],
        }
        for r in results
    ]
    return json.dumps(payload, sort_keys=True).encode()


class TestGoldenTranscripts:
    """The sharded tick must not change a single serialized byte.

    Every selector x both backends x shards in {1, 4}: the engine's
    results, serialized, are byte-identical to a sequential
    ``DiscoverySession.run`` golden — extending the parity contract of
    :class:`TestEngineParity` to the sharded scan dispatch.
    """

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("factory", SELECTOR_FACTORIES)
    def test_serialized_transcripts_byte_identical(
        self, backend, shards, factory
    ):
        collection = make_collection(backend, n_sets=130, seed=13)
        rng = random.Random(29)
        targets = [rng.randrange(collection.n_sets) for _ in range(12)]
        collection.clear_caches()
        golden = serialize_results(
            sequential_results(collection, factory, targets, perfect_oracle)
        )
        collection.clear_caches()
        engine = SessionEngine(collection, shards=shards)
        assert collection.shards == shards
        for i, target in enumerate(targets):
            engine.add(
                DiscoverySession(collection, factory()),
                oracle=perfect_oracle(collection, target, i),
                key=i,
            )
        results = engine.run()
        got = serialize_results([results[i] for i in range(len(targets))])
        assert got == golden

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_sharded_golden_with_dont_know_answers(self, backend):
        collection = make_collection(backend, n_sets=70, seed=21)
        rng = random.Random(37)
        targets = [rng.randrange(collection.n_sets) for _ in range(10)]
        collection.clear_caches()
        golden = serialize_results(
            sequential_results(
                collection, MostEvenSelector, targets, unsure_oracle
            )
        )
        collection.clear_caches()
        engine = SessionEngine(collection, shards=4)
        for i, target in enumerate(targets):
            engine.add(
                DiscoverySession(collection, MostEvenSelector()),
                oracle=unsure_oracle(collection, target, i),
                key=i,
            )
        results = engine.run()
        got = serialize_results([results[i] for i in range(len(targets))])
        assert got == golden

    def test_engine_shards_argument_reshards_collection(self):
        collection = make_collection("bigint", n_sets=40, seed=2)
        assert collection.shards == 1
        SessionEngine(collection, shards=3)
        assert collection.shards == 3
        # neither a matching shard count nor no request rebuilds the kernel
        kernel = collection.kernel
        SessionEngine(collection, shards=3)
        SessionEngine(collection)
        assert collection.kernel is kernel
        collection.reshard(None)
        assert collection.shards == 1


# --------------------------------------------------------------------- #
# Pull-style serving API
# --------------------------------------------------------------------- #


class TestPullStyleServing:
    def test_tick_answer_loop_matches_run(self):
        collection = make_collection("bigint", n_sets=50, seed=2)
        targets = [1, 7, 22, 40]
        oracles = {
            i: SimulatedUser(collection, target_index=t)
            for i, t in enumerate(targets)
        }
        engine = SessionEngine(collection)
        for i in range(len(targets)):
            engine.add(DiscoverySession(collection, MostEvenSelector()), key=i)
        rounds = 0
        while engine.n_active:
            newly = engine.tick()
            rounds += 1
            for key, entity in newly.items():
                engine.answer(key, oracles[key](entity))
            assert rounds < 100, "pull loop failed to make progress"
        results = engine.completed()
        for i, t in enumerate(targets):
            expected = DiscoverySession(collection, MostEvenSelector()).run(
                SimulatedUser(collection, target_index=t)
            )
            assert results[i].transcript == expected.transcript
        # completed() drains
        assert engine.completed() == {}

    def test_pending_reflects_unanswered_questions(self):
        collection = make_collection("bigint", n_sets=40, seed=4)
        engine = SessionEngine(collection)
        engine.add(DiscoverySession(collection, MostEvenSelector()), key="u1")
        newly = engine.tick()
        assert set(newly) == {"u1"}
        assert engine.pending() == newly
        # tick is idempotent while an answer is outstanding
        assert engine.tick() == {}
        assert engine.pending() == newly
        engine.answer("u1", True)
        assert engine.pending() == {}

    def test_spawn_convenience(self):
        collection = make_collection("bigint", n_sets=40, seed=4)
        engine = SessionEngine(collection)
        key = engine.spawn(
            MostEvenSelector(),
            oracle=SimulatedUser(collection, target_index=3),
        )
        assert engine.session(key).n_candidates == collection.n_sets
        results = engine.run()
        assert results[key].resolved

    def test_immediately_finished_session_is_retired(self):
        collection = SetCollection.from_named_sets(FIG1_SETS)
        engine = SessionEngine(collection)
        engine.add(
            DiscoverySession(collection, MostEvenSelector(), initial={"e"}),
            key="done",
        )  # {"e"} pins S2 immediately
        assert engine.tick() == {}
        assert engine.n_active == 0
        assert engine.results["done"].resolved

    def test_add_rejects_foreign_collection(self):
        a = make_collection("bigint", n_sets=30, seed=1)
        b = make_collection("bigint", n_sets=30, seed=1)
        engine = SessionEngine(a)
        with pytest.raises(ValueError, match="different collection"):
            engine.add(DiscoverySession(b, MostEvenSelector()))

    def test_duplicate_key_rejected(self):
        collection = make_collection("bigint", n_sets=30, seed=1)
        engine = SessionEngine(collection)
        engine.add(DiscoverySession(collection, MostEvenSelector()), key="x")
        with pytest.raises(KeyError):
            engine.add(
                DiscoverySession(collection, MostEvenSelector()), key="x"
            )

    def test_run_requires_oracles(self):
        collection = make_collection("bigint", n_sets=30, seed=1)
        engine = SessionEngine(collection)
        engine.add(DiscoverySession(collection, MostEvenSelector()))
        with pytest.raises(ValueError, match="oracle"):
            engine.run()

    def test_all_dont_know_terminates(self):
        collection = SetCollection.from_named_sets(FIG1_SETS)
        engine = SessionEngine(collection)
        engine.add(
            DiscoverySession(collection, MostEvenSelector()),
            oracle=lambda entity: None,
            key=0,
        )
        results = engine.run()
        assert not results[0].resolved
        assert results[0].n_questions == 0


# --------------------------------------------------------------------- #
# Serving hygiene: cache release, stats, seconds
# --------------------------------------------------------------------- #


class TestServingHygiene:
    def test_engine_releases_cached_masks_on_completion(self):
        collection = make_collection("bigint", n_sets=80, seed=6)
        engine = SessionEngine(collection, release_caches=True)
        rng = random.Random(8)
        for i in range(12):
            engine.add(
                DiscoverySession(collection, MostEvenSelector()),
                oracle=SimulatedUser(
                    collection, target_index=rng.randrange(collection.n_sets)
                ),
                key=i,
            )
        engine.run()
        # every session finished and released its visited masks
        assert collection.cached_mask_count() == 0

    def test_release_can_be_disabled(self):
        collection = make_collection("bigint", n_sets=80, seed=6)
        engine = SessionEngine(collection, release_caches=False)
        engine.add(
            DiscoverySession(collection, MostEvenSelector()),
            oracle=SimulatedUser(collection, target_index=0),
        )
        engine.run()
        assert collection.cached_mask_count() > 0

    def test_engine_stats_counters(self):
        collection = make_collection("bigint", n_sets=60, seed=3)
        engine = SessionEngine(collection)
        for i in range(8):
            engine.add(
                DiscoverySession(collection, MostEvenSelector()),
                oracle=SimulatedUser(collection, target_index=i),
                key=i,
            )
        engine.run()
        stats = engine.stats
        assert stats.ticks > 0
        assert stats.selections > 0
        assert stats.batched_selections == stats.selections
        assert stats.fallback_selections == 0
        # dedup: 8 sessions all start at the full mask -> fewer scoring
        # groups than selections
        assert stats.scoring_groups < stats.selections
        assert stats.scanned_masks > 0
        assert stats.seconds > 0.0

    def test_engine_sessions_record_seconds(self):
        collection = make_collection("bigint", n_sets=60, seed=3)
        engine = SessionEngine(collection)
        engine.add(
            DiscoverySession(collection, MostEvenSelector()),
            oracle=SimulatedUser(collection, target_index=5),
            key=0,
        )
        results = engine.run()
        assert results[0].seconds > 0.0

    def test_fallback_selector_counts_as_fallback(self):
        collection = make_collection("bigint", n_sets=40, seed=3)
        engine = SessionEngine(collection)
        engine.add(
            DiscoverySession(collection, KLPSelector(k=2)),
            oracle=SimulatedUser(collection, target_index=1),
        )
        engine.run()
        assert engine.stats.fallback_selections > 0
        assert engine.stats.batched_selections == 0


class TestScoringDedupSafety:
    def test_lb1_metrics_sharing_a_name_are_not_conflated(self):
        # Batch scoring is decided by metric identity, not display name:
        # only the H singleton is known to be monotone in split evenness,
        # so a metric merely named "H" keeps its own select().
        from repro.core.bounds import AD, H

        class RenamedAD(type(AD)):
            name = "H"

        class RenamedH(type(H)):
            name = "AD"

        assert LB1Selector(H).most_even
        assert not LB1Selector(AD).most_even
        assert not LB1Selector(RenamedAD()).most_even
        assert not LB1Selector(RenamedH()).most_even
