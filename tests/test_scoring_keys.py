"""The integer most-even key is exactly the float ranking it replaced.

MostEven, InfoGain, Indg and ``LB1[H]`` rank informative entities by
``(|2*n1 - n|, eid)`` (:mod:`repro.core.kernels.scoring`).  The rankings
they used before were ``(score(n, n1), |2*n1 - n|, eid)`` over a float
score.  The two agree for every possible set of entities iff, at each
``n``, the score is a function of the unevenness ``d = |2*n1 - n|`` alone
(bitwise symmetric in ``n1 <-> n - n1``) that never decreases as ``d``
grows: a float tie between different ``d`` is broken by ``d`` either way.
These tests check both conditions against the scalar reference functions,
exhaustively for ``n <= 3000`` and at every ``n1`` for sampled ``n`` up to
100,000 (serve-stacked's collection has 50,000 sets).

``LB1[AD]`` does not satisfy them (Lemma 4.3 fails for it from 35 sets
on); the last class pins the counterexample on every backend and through
the serving engine.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.bounds import AD, H, ceil_log2
from repro.core.collection import SetCollection
from repro.core.discovery import DiscoverySession
from repro.core.kernels import (
    HAS_NATIVE,
    HAS_NUMPY,
    select_best,
    select_best_many,
)
from repro.core.selection import (
    IndistinguishablePairsSelector,
    InfoGainSelector,
    LB1Selector,
    MostEvenSelector,
    indistinguishable_pairs,
    information_gain,
)
from repro.serve import SessionEngine

np = pytest.importorskip("numpy")

EXHAUSTIVE_N = 3000
SAMPLED_N = (4096, 10007, 32768, 49999, 50000, 65536, 100000)


def _log2_table(n_max: int) -> "np.ndarray":
    """``math.log2(k)`` for ``k = 0..n_max`` (slot 0 unused)."""
    return np.array([0.0] + [math.log2(k) for k in range(1, n_max + 1)])


LOG2 = _log2_table(max(SAMPLED_N))


def _gains(n: int) -> "np.ndarray":
    """``information_gain(n, n1)`` for ``n1 = 1..n-1``, bit for bit.

    The same IEEE operations, in the same order, on the same
    ``math.log2`` values as the scalar function: every step is correctly
    rounded, so the results are identical (and checked to be, below).
    """
    n1 = np.arange(1, n, dtype=np.int64)
    n2 = n - n1
    return LOG2[n] - (n1 * LOG2[n1] + n2 * LOG2[n2]) / n


def _assert_ranked_by_unevenness(n: int, scores: "np.ndarray", what: str):
    """``scores[n1 - 1]`` depends on ``d`` alone and never falls as ``d`` grows."""
    assert np.array_equal(scores, scores[::-1]), f"{what} asymmetric at n={n}"
    # n1 = 1 .. n // 2 walks d downwards from n - 2 to n % 2.
    half = scores[: n // 2]
    assert np.all(np.diff(half) <= 0), f"{what} inverts at n={n}"


class TestInfoGainKey:
    def test_vectorized_gain_is_the_scalar_reference(self):
        rng = random.Random(9)
        for n in list(range(2, 120)) + list(SAMPLED_N):
            vec = _gains(n)
            n1s = range(1, n) if n < 120 else rng.sample(range(1, n), 300)
            for n1 in n1s:
                assert vec[n1 - 1] == information_gain(n, n1), (n, n1)

    def test_exhaustive_up_to_3000(self):
        for n in range(2, EXHAUSTIVE_N + 1):
            _assert_ranked_by_unevenness(n, -_gains(n), "-InfoGain")

    @pytest.mark.parametrize("n", SAMPLED_N)
    def test_every_split_of_sampled_sizes(self, n):
        scores = np.array([-information_gain(n, n1) for n1 in range(1, n)])
        _assert_ranked_by_unevenness(n, scores, "-InfoGain")

    def test_rankings_agree_on_random_groups(self):
        rng = random.Random(17)
        infogain = lambda n, n1: -information_gain(n, n1)  # noqa: E731
        eids_list, counts_list, ns, expected = [], [], [], []
        for _ in range(300):
            n = rng.choice([rng.randint(2, 60), rng.randint(2, 100000)])
            size = rng.randint(1, 40)
            eids = np.array(sorted(rng.sample(range(5000), size)))
            mid = rng.randint(1, n - 1)
            counts = np.array(
                [min(n - 1, max(1, mid + rng.randint(-3, 3))) for _ in eids]
            )
            old = select_best(eids, counts, n, infogain)
            assert old == select_best(eids, counts, n)
            assert old == select_best(eids.tolist(), counts.tolist(), n)
            eids_list.append(eids)
            counts_list.append(counts)
            ns.append(n)
            expected.append(old)
        assert select_best_many(eids_list, counts_list, ns) == expected


class TestIndgKey:
    def test_exact_integer_form(self):
        for n in range(2, EXHAUSTIVE_N + 1):
            n1 = np.arange(1, n, dtype=np.int64)
            n2 = n - n1
            d = np.abs(2 * n1 - n)
            eq10 = (n1 * (n1 - 1) + n2 * (n2 - 1)) // 2
            assert np.array_equal(eq10, (n * n + d * d - 2 * n) // 4)
            _assert_ranked_by_unevenness(n, eq10, "Indg")

    @pytest.mark.parametrize("n", (2, 3, 35, 1000) + SAMPLED_N)
    def test_scalar_reference_every_split(self, n):
        scores = np.array(
            [float(indistinguishable_pairs(n1, n - n1)) for n1 in range(1, n)]
        )
        d = np.abs(2 * np.arange(1, n) - n)
        assert np.array_equal(scores, (n * n + d * d - 2 * n) / 4)
        _assert_ranked_by_unevenness(n, scores, "Indg")


class TestHeightBoundKey:
    def test_closed_form_exhaustive_up_to_3000(self):
        ceil_log2s = np.array([0] + [ceil_log2(k) for k in range(1, EXHAUSTIVE_N + 1)])
        for n in range(2, EXHAUSTIVE_N + 1):
            n1 = np.arange(1, n, dtype=np.int64)
            bound = ceil_log2s[(n + np.abs(2 * n1 - n)) // 2] + 1
            _assert_ranked_by_unevenness(n, bound, "LB1[H]")

    @pytest.mark.parametrize("n", (2, 3, 35, 64, 65, 1000) + SAMPLED_N)
    def test_scalar_reference_every_split(self, n):
        scores = np.array([H.lb1(n1, n - n1) for n1 in range(1, n)])
        d = np.abs(2 * np.arange(1, n) - n)
        closed = np.array([ceil_log2((n + int(x)) // 2) + 1 for x in d])
        assert np.array_equal(scores, closed)
        _assert_ranked_by_unevenness(n, scores, "LB1[H]")


# --------------------------------------------------------------------- #
# LB1[AD]: the exception
# --------------------------------------------------------------------- #

BACKENDS = (
    ["bigint"]
    + (["numpy"] if HAS_NUMPY else [])
    + (["native"] if HAS_NATIVE else [])
)

MOST_EVEN_SELECTORS = [
    MostEvenSelector,
    InfoGainSelector,
    IndistinguishablePairsSelector,
    lambda: LB1Selector(H),
]


def lemma_4_3_counterexample(backend: str) -> SetCollection:
    """35 sets, each with one unique entity; ``x`` in 17, ``y`` in 16.

    ``x`` splits 17/18 (unevenness 1), ``y`` 16/19 (unevenness 3), but
    Eq. 1's ceiling gives ``AD.lb1(16, 19) < AD.lb1(17, 18)``.
    """
    raw = []
    for i in range(35):
        members = [f"u{i}"]
        if i < 17:
            members.append("x")
        elif i >= 19:
            members.append("y")
        raw.append(members)
    return SetCollection(raw, backend=backend)


class TestLemma43Counterexample:
    def test_ad_bound_is_not_monotone_in_evenness(self):
        assert AD.lb1(16, 19) == pytest.approx(5.142857, abs=1e-6)
        assert AD.lb1(17, 18) == pytest.approx(5.171429, abs=1e-6)
        assert AD.lb1(16, 19) < AD.lb1(17, 18)
        assert H.lb1(16, 19) == H.lb1(17, 18)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_selectors_on_every_backend(self, backend):
        coll = lemma_4_3_counterexample(backend)
        x, y = coll.universe.id_of("x"), coll.universe.id_of("y")
        for factory in MOST_EVEN_SELECTORS:
            assert factory().select(coll, coll.full_mask) == x
        assert LB1Selector(AD).select(coll, coll.full_mask) == y

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_batches_most_even_and_falls_back_for_ad(self, backend):
        coll = lemma_4_3_counterexample(backend)
        x, y = coll.universe.id_of("x"), coll.universe.id_of("y")
        engine = SessionEngine(coll)
        for i, factory in enumerate(MOST_EVEN_SELECTORS):
            engine.add(DiscoverySession(coll, factory()), key=i)
        engine.add(DiscoverySession(coll, LB1Selector(AD)), key="ad")
        assert engine.tick() == {0: x, 1: x, 2: x, 3: x, "ad": y}
        # The four most-even selectors share one scoring group.
        assert engine.stats.batched_selections == 4
        assert engine.stats.scoring_groups == 1
        assert engine.stats.fallback_selections == 1
