"""Tests for repro.core.selection (Sec. 4.2 strategies and Lemma 4.3)."""

import pytest

from repro.core.selection import (
    IndistinguishablePairsSelector,
    InfoGainSelector,
    LB1Selector,
    MostEvenSelector,
    NoInformativeEntityError,
    RandomSelector,
    indistinguishable_pairs,
    information_gain,
    unevenness,
)
from repro.core.bounds import AD, H


class TestScoreFunctions:
    def test_information_gain_even_split_is_one_bit(self):
        assert information_gain(8, 4) == pytest.approx(1.0)

    def test_information_gain_degenerate_split_is_zero(self):
        assert information_gain(8, 0) == 0.0
        assert information_gain(8, 8) == 0.0

    def test_information_gain_monotone_toward_even(self):
        gains = [information_gain(10, k) for k in range(1, 6)]
        assert gains == sorted(gains)

    def test_indistinguishable_pairs_matches_eq10(self):
        # Eq. 10 for |C1|=3, |C2|=4: (3*2 + 4*3)/2 = 9.
        assert indistinguishable_pairs(3, 4) == 9

    def test_indistinguishable_pairs_even_is_minimal(self):
        values = [indistinguishable_pairs(k, 10 - k) for k in range(1, 10)]
        assert min(values) == indistinguishable_pairs(5, 5)

    def test_unevenness(self):
        assert unevenness(7, 3) == 1
        assert unevenness(7, 4) == 1
        assert unevenness(8, 4) == 0
        assert unevenness(8, 1) == 6


class TestFig1Selection:
    """On Fig. 1, the most even split is 3/4, achieved by c and d; the
    deterministic tie-break (entity id) picks whichever was interned
    first — 'c' appears before 'd' in S1's iteration-independent sorted
    interning?  No: interning follows input order, so we assert on the
    *split*, not the identity."""

    def _split_sizes(self, coll, eid):
        n1 = coll.positive_count(coll.full_mask, eid)
        return sorted([n1, coll.n_sets - n1])

    @pytest.mark.parametrize(
        "selector",
        [
            MostEvenSelector(),
            InfoGainSelector(),
            IndistinguishablePairsSelector(),
            LB1Selector(AD),
            LB1Selector(H),
        ],
        ids=lambda s: s.name,
    )
    def test_all_strategies_pick_a_most_even_split(self, fig1, selector):
        chosen = selector.select(fig1, fig1.full_mask)
        assert self._split_sizes(fig1, chosen) == [3, 4]
        assert fig1.universe.label(chosen) in {"c", "d"}

    def test_lemma_4_3_all_strategies_agree(self, fig1, synthetic_small):
        """Lemma 4.3: InfoGain, Indg and LB1 select the same entity.

        LB1[AD] agrees on these collections but not in general: from 35
        sets on its bound is not monotone in evenness (see
        ``test_scoring_keys.py``).
        """
        selectors = [
            MostEvenSelector(),
            InfoGainSelector(),
            IndistinguishablePairsSelector(),
            LB1Selector(AD),
            LB1Selector(H),
        ]
        for coll in (fig1, synthetic_small):
            masks = [coll.full_mask]
            # Also check a few sub-collections.
            first = selectors[0].select(coll, coll.full_mask)
            masks.extend(coll.partition(coll.full_mask, first))
            for mask in masks:
                if coll.count(mask) < 2:
                    continue
                choices = {s.select(coll, mask) for s in selectors}
                assert len(choices) == 1, (
                    f"strategies disagree on mask {mask:b}: {choices}"
                )


class TestExcludeAndErrors:
    def test_exclude_forces_second_best(self, fig1):
        best = MostEvenSelector().select(fig1, fig1.full_mask)
        second = MostEvenSelector().select(
            fig1, fig1.full_mask, exclude={best}
        )
        assert second != best
        # The other 3/4 splitter (c or d) is next.
        n1 = fig1.positive_count(fig1.full_mask, second)
        assert sorted([n1, 7 - n1]) == [3, 4]

    def test_all_excluded_raises(self, fig1):
        informative = {
            e for e, _ in fig1.informative_entities(fig1.full_mask)
        }
        with pytest.raises(NoInformativeEntityError):
            MostEvenSelector().select(
                fig1, fig1.full_mask, exclude=informative
            )

    def test_singleton_subcollection_raises(self, fig1):
        with pytest.raises(NoInformativeEntityError):
            MostEvenSelector().select(fig1, 0b1)

    def test_candidates_parameter_narrows_choice(self, fig1):
        e = fig1.universe.id_of("e")  # 1/6 split: poor but only option
        assert (
            MostEvenSelector().select(fig1, fig1.full_mask, candidates=[e])
            == e
        )


class TestRandomSelector:
    def test_seeded_reproducibility(self, fig1):
        a = RandomSelector(seed=3)
        b = RandomSelector(seed=3)
        seq_a = [a.select(fig1, fig1.full_mask) for _ in range(5)]
        seq_b = [b.select(fig1, fig1.full_mask) for _ in range(5)]
        assert seq_a == seq_b

    def test_reset_restarts_stream(self, fig1):
        s = RandomSelector(seed=3)
        first = [s.select(fig1, fig1.full_mask) for _ in range(3)]
        s.reset()
        again = [s.select(fig1, fig1.full_mask) for _ in range(3)]
        assert first == again

    def test_only_informative_entities_selected(self, fig1):
        s = RandomSelector(seed=0)
        a = fig1.universe.id_of("a")
        for _ in range(20):
            assert s.select(fig1, fig1.full_mask) != a


class TestNames:
    def test_selector_names(self):
        assert MostEvenSelector().name == "MostEven"
        assert InfoGainSelector().name == "InfoGain"
        assert IndistinguishablePairsSelector().name == "Indg"
        assert LB1Selector(H).name == "LB1[H]"
        assert "MostEven" in repr(MostEvenSelector())
