"""Property-based tests (hypothesis) for the paper's core invariants.

Strategy: random small collections of unique sets over a small entity
universe, then check the lemmas and algorithmic equivalences the paper
proves:

* Lemma 3.3 / Eq. 1-2: any constructed tree costs at least the zero-step
  lower bounds;
* Lemmas 4.1/4.2: k-step bounds are monotone non-decreasing in k;
* Lemma 4.3: InfoGain, indistinguishable pairs and 1-step LB select the
  same (most even) entity (for LB1 under AD only below 35 sets, which
  these collections never reach; ``test_scoring_keys.py`` pins the
  counterexample);
* Lemma 4.4: pruning never changes the selected entity or bound (k-LP vs
  the exhaustive reference);
* Sec. 4.4.1: k-LP at k >= n-1 is optimal;
* Algorithm 2: discovery always finds the target, in exactly the number
  of questions the offline tree predicts.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bounds import AD, H, lb_ad0, lb_h0
from repro.core.collection import SetCollection
from repro.core.construction import build_tree
from repro.core.discovery import discover
from repro.core.gain_k import UnprunedKLPSelector, lb_k, lb_k_entity
from repro.core.lookahead import KLPSelector
from repro.core.optimal import optimal_cost
from repro.core.selection import (
    IndistinguishablePairsSelector,
    InfoGainSelector,
    LB1Selector,
    MostEvenSelector,
    unevenness,
)
from repro.oracle import SimulatedUser

# A collection: 2-9 unique non-empty subsets of a 10-entity universe.
collections = st.sets(
    st.frozensets(st.integers(0, 9), min_size=1, max_size=6),
    min_size=2,
    max_size=9,
).map(lambda sets: SetCollection(sorted(sets, key=sorted)))

relaxed = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def has_informative(coll: SetCollection) -> bool:
    return bool(coll.informative_entities(coll.full_mask))


@given(coll=collections)
@relaxed
def test_unique_sets_always_have_informative_entity(coll):
    # Two or more unique sets always differ somewhere.
    assert has_informative(coll)


@given(coll=collections)
@relaxed
def test_partition_is_exact(coll):
    mask = coll.full_mask
    for eid, cnt in coll.informative_entities(mask):
        pos, neg = coll.partition(mask, eid)
        assert pos | neg == mask
        assert pos & neg == 0
        assert coll.count(pos) == cnt
        for idx in coll.sets_in(pos):
            assert eid in coll.sets[idx]
        for idx in coll.sets_in(neg):
            assert eid not in coll.sets[idx]


@given(coll=collections, k=st.integers(1, 4))
@relaxed
def test_tree_cost_at_least_lb0(coll, k):
    tree = build_tree(coll, KLPSelector(k=k))
    n = coll.n_sets
    assert tree.average_depth() >= lb_ad0(n) - 1e-9
    assert tree.height() >= lb_h0(n)


@given(coll=collections)
@relaxed
def test_lemma_4_1_bounds_monotone_in_k(coll):
    for metric in (AD, H):
        bounds = [
            lb_k(coll, coll.full_mask, k, metric) for k in range(0, 5)
        ]
        for earlier, later in zip(bounds, bounds[1:]):
            assert later >= earlier - 1e-9


@given(coll=collections)
@relaxed
def test_lemma_4_2_entity_bounds_monotone_in_k(coll):
    mask = coll.full_mask
    for metric in (AD, H):
        for eid, _ in coll.informative_entities(mask)[:4]:
            bounds = [
                lb_k_entity(coll, mask, eid, k, metric)
                for k in range(1, 5)
            ]
            for earlier, later in zip(bounds, bounds[1:]):
                assert later >= earlier - 1e-9


@given(coll=collections)
@relaxed
def test_lemma_4_3_one_step_strategies_agree(coll):
    mask = coll.full_mask
    n = coll.n_sets
    chosen = {
        selector.name: selector.select(coll, mask)
        for selector in (
            MostEvenSelector(),
            InfoGainSelector(),
            IndistinguishablePairsSelector(),
            LB1Selector(AD),
            LB1Selector(H),
        )
    }
    values = set(chosen.values())
    assert len(values) == 1, chosen
    # And the common choice is a most-even splitter.
    entity = values.pop()
    best = min(
        unevenness(n, cnt)
        for _, cnt in coll.informative_entities(mask)
    )
    assert unevenness(n, coll.positive_count(mask, entity)) == best


@given(coll=collections, k=st.integers(1, 3), metric=st.sampled_from([AD, H]))
@relaxed
def test_lemma_4_4_pruning_preserves_selection(coll, k, metric):
    pruned = KLPSelector(k=k, metric=metric)
    reference = UnprunedKLPSelector(k=k, metric=metric)
    assert pruned.select(coll, coll.full_mask) == reference.select(
        coll, coll.full_mask
    )


@given(coll=collections, metric=st.sampled_from([AD, H]))
@relaxed
def test_klp_with_full_lookahead_is_optimal(coll, metric):
    exact = optimal_cost(coll, metric)
    tree = build_tree(coll, KLPSelector(k=coll.n_sets - 1, metric=metric))
    assert metric.tree_cost(tree.depths()) == pytest.approx(exact)


@given(coll=collections)
@relaxed
def test_lb_never_exceeds_optimal(coll):
    for metric in (AD, H):
        exact = optimal_cost(coll, metric)
        for k in range(0, 4):
            assert lb_k(coll, coll.full_mask, k, metric) <= exact + 1e-9


@given(coll=collections, k=st.integers(1, 3))
@relaxed
def test_constructed_tree_is_valid(coll, k):
    tree = build_tree(coll, KLPSelector(k=k))
    tree.validate(coll)
    assert tree.n_leaves == coll.n_sets


@given(coll=collections, data=st.data())
@relaxed
def test_discovery_finds_any_target(coll, data):
    target = data.draw(st.integers(0, coll.n_sets - 1))
    tree = build_tree(coll, KLPSelector(k=2))
    result = discover(
        coll, KLPSelector(k=2), SimulatedUser(coll, target_index=target)
    )
    assert result.resolved
    assert result.target == target
    assert result.n_questions == tree.leaf_depths()[target]


@given(coll=collections, q=st.integers(1, 4))
@relaxed
def test_beam_variants_build_valid_trees(coll, q):
    for variable in (False, True):
        selector = KLPSelector(k=2, q=q, variable=variable)
        tree = build_tree(coll, selector)
        tree.validate(coll)


@given(coll=collections)
@relaxed
def test_batch_partition_cells_are_exact(coll):
    from repro.core.batch import partition_cells, select_batch

    batch = select_batch(coll, coll.full_mask, 3)
    cells = partition_cells(coll, coll.full_mask, batch)
    union = 0
    for pattern, cell in cells.items():
        assert len(pattern) == len(batch)
        assert cell != 0
        assert union & cell == 0
        union |= cell
        # Every member set agrees with the pattern.
        for idx in coll.sets_in(cell):
            for eid, expected in zip(batch, pattern):
                assert (eid in coll.sets[idx]) == expected
    assert union == coll.full_mask


@given(coll=collections, s=st.floats(0.0, 2.5))
@relaxed
def test_weighted_cost_bounded_by_entropy(coll, s):
    from repro.core.priors import skewed_prior

    prior = skewed_prior(coll, s)
    tree = build_tree(coll, MostEvenSelector())
    assert prior.weighted_average_depth(tree) >= prior.entropy() - 1e-9


@given(
    sets=st.sets(
        st.frozensets(st.integers(0, 9), min_size=1, max_size=6),
        min_size=2,
        max_size=9,
    )
)
@relaxed
def test_collection_round_trips_through_json(sets, tmp_path_factory):
    from repro.data.loaders import load_collection_json, save_collection_json

    coll = SetCollection(sorted(sets, key=sorted))
    path = tmp_path_factory.mktemp("prop") / "c.json"
    save_collection_json(coll, path)
    loaded = load_collection_json(path)
    originals = {frozenset(coll.set_labels(i)) for i in range(coll.n_sets)}
    reloaded = {
        frozenset(loaded.set_labels(i)) for i in range(loaded.n_sets)
    }
    assert originals == reloaded
