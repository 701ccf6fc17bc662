"""Workload builders shared by the experiment runners.

Each builder maps a :class:`~repro.experiments.common.Scale` to concrete
dataset parameters.  The guiding rule: keep the paper's parameter *shape*
(the swept values, their ratios) and divide sizes by the scale divisor, so
trends and crossovers are preserved at laptop cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.collection import SetCollection
from ..data.synthetic import SyntheticConfig, generate_collection
from ..data.webtables import (
    InitialPair,
    WebTableConfig,
    WebTableWorkload,
)
from ..querydisc.targets import BaseballWorkload
from .common import PAPER, Scale


def webtable_workload(
    scale: Scale,
    min_candidates: int | None = None,
    max_pairs: int = 12,
) -> WebTableWorkload:
    """Web-tables substitute sized for ``scale``.

    The paper keeps sub-collections with at least 100 candidate sets; the
    floor shrinks with the scale so small runs still produce multi-set
    sub-collections to search.
    """
    n_sets = scale.scaled(40_000)
    config = WebTableConfig(
        n_sets=max(n_sets, 200),
        n_domains=max(8, scale.scaled(400)),
        domain_vocab=200 if scale is PAPER else 120,
        size_lo=3,
        size_hi=40,
        seed=7,
    )
    if min_candidates is None:
        min_candidates = 100 if scale is PAPER else 25
    return WebTableWorkload.build(
        config=config, min_candidates=min_candidates, max_pairs=max_pairs
    )


@dataclass(frozen=True)
class SubCollectionTask:
    """One tree-construction task: a collection and a sub-collection."""

    collection: SetCollection
    pair: InitialPair

    @property
    def mask(self) -> int:
        return self.pair.mask

    @property
    def n_sets(self) -> int:
        return self.pair.n_candidates


def webtable_tasks(
    scale: Scale,
    max_tasks: int = 8,
    max_sets: int | None = None,
) -> list[SubCollectionTask]:
    """Initial-pair sub-collections as tree-construction tasks.

    ``max_sets`` drops sub-collections larger than the scale's budget (the
    paper's range went up to 11k sets; pure Python trees that large are a
    paper-scale run).
    """
    workload = webtable_workload(scale, max_pairs=max_tasks * 4)
    budget = max_sets if max_sets is not None else scale.max_sets
    tasks = [
        SubCollectionTask(workload.collection, pair)
        for pair in workload.pairs
        if budget is None or pair.n_candidates <= budget
    ]
    tasks.sort(key=lambda t: t.n_sets)
    return tasks[:max_tasks]


def synthetic_collection(
    n_sets: int,
    overlap: float,
    size_lo: int = 50,
    size_hi: int = 60,
    seed: int = 42,
) -> SetCollection:
    """A copy-add synthetic collection with the given parameters."""
    return generate_collection(
        SyntheticConfig(
            n_sets=n_sets,
            size_lo=size_lo,
            size_hi=size_hi,
            overlap=overlap,
            seed=seed,
        )
    )


def baseball_workload(scale: Scale) -> BaseballWorkload:
    """Baseball workload sized for ``scale`` (paper: 20,185 players)."""
    n_players = scale.scaled(20_185)
    return BaseballWorkload.build(n_players=max(n_players, 1_000))
