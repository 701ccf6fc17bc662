"""Web-tables substitute: a domain-structured collection generator plus the
paper's cleaning pipeline (Sec. 5.2.1).

The paper's real dataset — 1.4M column sets extracted from a 2014 Wikipedia
snapshot — is not redistributable here, so this module supplies the closest
synthetic equivalent:

* **Generator** (:func:`generate_webtable_sets`): entities are grouped into
  latent *semantic domains* ("NBA players", "cities", ...) with Zipfian
  popularity both across domains and across the entities inside a domain.
  Each raw column samples mostly from one domain, occasionally mixing in a
  second domain and header/noise tokens ("unknown", "tba", numbers) to
  mimic extraction noise.  This reproduces the structure the discovery
  algorithms actually interact with: many highly overlapping sets within a
  domain, near-disjoint sets across domains, and a heavy-tailed
  entity-frequency distribution.

* **Cleaning** (:func:`clean_sets`): the paper's exact rules — drop sets
  with fewer than three distinct elements, drop all-numeric sets, remove a
  stop-word list (*unknown*, *tba*, *total*), deduplicate.

* **Query workload** (:func:`initial_pair_subcollections`): "each
  combination of two entities as a possible initial example set", keeping
  the pairs whose candidate sub-collection (sets containing both) has at
  least ``min_candidates`` sets, as Sec. 5.2.1 prescribes (floor of 100 in
  the paper).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..core.bitmask import popcount
from ..core.collection import SetCollection

#: The frequent keywords the paper strips from web-table columns
#: ("a few frequent keywords such as unknown, tba, total"), plus the
#: placeholder tokens of the same family.
DEFAULT_STOPWORDS = frozenset({"unknown", "tba", "total", "n/a", "-", ""})


@dataclass(frozen=True)
class WebTableConfig:
    """Parameters for the web-tables-like generator."""

    n_sets: int = 2_000
    n_domains: int = 40
    domain_vocab: int = 400
    size_lo: int = 3
    size_hi: int = 60
    #: probability a column mixes in entities from a second domain
    mix_prob: float = 0.15
    #: probability a column carries noise tokens
    noise_prob: float = 0.25
    #: Zipf-like skew for entity popularity inside a domain
    zipf_s: float = 1.1
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_sets < 1 or self.n_domains < 2 or self.domain_vocab < 4:
            raise ValueError("degenerate web-table configuration")
        if not 3 <= self.size_lo <= self.size_hi:
            raise ValueError("column sizes must satisfy 3 <= lo <= hi")


def _zipf_weights(n: int, s: float) -> list[float]:
    return [1.0 / (rank**s) for rank in range(1, n + 1)]


def generate_webtable_sets(config: WebTableConfig) -> list[list[str]]:
    """Raw column lists (with duplicates/noise), before cleaning."""
    rng = random.Random(config.seed)
    domains: list[list[str]] = [
        [f"d{d}_e{i}" for i in range(config.domain_vocab)]
        for d in range(config.n_domains)
    ]
    entity_weights = _zipf_weights(config.domain_vocab, config.zipf_s)
    domain_weights = _zipf_weights(config.n_domains, 1.0)
    noise_pool = ["unknown", "tba", "total", "n/a", "-"]
    columns: list[list[str]] = []
    for _ in range(config.n_sets):
        size = rng.randint(config.size_lo, config.size_hi)
        primary = rng.choices(
            range(config.n_domains), weights=domain_weights
        )[0]
        values = rng.choices(
            domains[primary], weights=entity_weights, k=size
        )
        if rng.random() < config.mix_prob:
            other = rng.randrange(config.n_domains)
            extra = rng.choices(
                domains[other], weights=entity_weights, k=max(1, size // 5)
            )
            values.extend(extra)
        if rng.random() < config.noise_prob:
            values.extend(
                rng.choices(noise_pool, k=rng.randint(1, 2))
            )
        if rng.random() < 0.05:
            # the all-numeric columns the paper drops
            values = [str(rng.randint(0, 5000)) for _ in range(size)]
        columns.append(values)
    return columns


# --------------------------------------------------------------------- #
# Cleaning pipeline (Sec. 5.2.1)
# --------------------------------------------------------------------- #


def is_all_numeric(values: Iterable[str]) -> bool:
    """True when every value parses as a number (int or float)."""
    saw_any = False
    for value in values:
        saw_any = True
        try:
            float(value)
        except (TypeError, ValueError):
            return False
    return saw_any


def clean_sets(
    raw_columns: Iterable[Iterable[str]],
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
    min_size: int = 3,
    drop_all_numeric: bool = True,
) -> list[frozenset[str]]:
    """Apply the paper's cleaning rules and return unique sets.

    1. duplicate entries inside a column are removed (pure sets);
    2. stop-words are removed;
    3. sets with fewer than ``min_size`` distinct elements are dropped;
    4. all-numeric sets are dropped;
    5. duplicate sets are removed.
    """
    seen: set[frozenset[str]] = set()
    result: list[frozenset[str]] = []
    for column in raw_columns:
        values = {str(v).strip() for v in column}
        if drop_all_numeric and is_all_numeric(values):
            continue
        values = {v for v in values if v.lower() not in stopwords and v}
        if len(values) < min_size:
            continue
        fs = frozenset(values)
        if fs in seen:
            continue
        seen.add(fs)
        result.append(fs)
    return result


def generate_webtable_collection(
    config: WebTableConfig | None = None,
) -> SetCollection:
    """Generate, clean and wrap a web-tables-like collection."""
    if config is None:
        config = WebTableConfig()
    raw = generate_webtable_sets(config)
    cleaned = clean_sets(raw)
    return SetCollection(
        (sorted(s) for s in cleaned),
        names=[f"col{i}" for i in range(len(cleaned))],
    )


# --------------------------------------------------------------------- #
# Initial-pair query workload (Sec. 5.2.1)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class InitialPair:
    """A two-entity initial example set and its candidate sub-collection."""

    entity_a: int
    entity_b: int
    mask: int

    @property
    def n_candidates(self) -> int:
        return popcount(self.mask)


def initial_pair_subcollections(
    collection: SetCollection,
    min_candidates: int = 100,
    max_pairs: int | None = None,
    seed: int = 0,
) -> list[InitialPair]:
    """Entity pairs whose joint candidate sub-collection is large enough.

    The paper considers *every* pair of co-occurring entities; for synthetic
    scale that is quadratic, so pairs are enumerated per popular entity and
    optionally capped at ``max_pairs`` by a seeded shuffle (deterministic).
    """
    if min_candidates < 2:
        raise ValueError("a useful sub-collection has at least 2 sets")
    # Entities present in at least min_candidates sets are the only ones
    # that can participate in a qualifying pair.
    frequent = [
        eid
        for eid in collection.entity_ids()
        if popcount(collection.entity_mask(eid)) >= min_candidates
    ]
    frequent.sort()
    pairs: list[InitialPair] = []
    for a, b in itertools.combinations(frequent, 2):
        mask = collection.entity_mask(a) & collection.entity_mask(b)
        if popcount(mask) >= min_candidates:
            pairs.append(InitialPair(a, b, mask))
    if max_pairs is not None and len(pairs) > max_pairs:
        rng = random.Random(seed)
        rng.shuffle(pairs)
        pairs = pairs[:max_pairs]
        pairs.sort(key=lambda p: (p.entity_a, p.entity_b))
    return pairs


@dataclass
class WebTableWorkload:
    """A cleaned collection together with its initial-pair queries."""

    collection: SetCollection
    pairs: list[InitialPair] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        config: WebTableConfig | None = None,
        min_candidates: int = 100,
        max_pairs: int | None = 50,
    ) -> "WebTableWorkload":
        collection = generate_webtable_collection(config)
        pairs = initial_pair_subcollections(
            collection, min_candidates=min_candidates, max_pairs=max_pairs
        )
        return cls(collection=collection, pairs=pairs)

    def subcollection_sizes(self) -> Sequence[int]:
        return [p.n_candidates for p in self.pairs]

    def __iter__(self) -> Iterator[InitialPair]:
        return iter(self.pairs)
