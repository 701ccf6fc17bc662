"""One-step entity-selection strategies (Sec. 4.2).

Each selector answers one question: *given a sub-collection, which entity
should the next membership question be about?*  The strategies here are the
paper's baselines:

* :class:`MostEvenSelector` — the (ln n + 1)-approximation greedy of Adler &
  Heeringa (Sec. 4.2.1): most evenly split the sub-collection.
* :class:`InfoGainSelector` — ID3/C4.5-style information gain (Eq. 9).
* :class:`IndistinguishablePairsSelector` — minimise remaining
  indistinguishable pairs (Eq. 10, Roy et al.).
* :class:`LB1Selector` — the paper's 1-step cost-lower-bound choice
  (Sec. 4.2.4), with the paper's tie-break (most even split, then a
  deterministic entity-id tie-break standing in for the paper's random pick).

By Lemma 4.3, MostEven, InfoGain, Indg and ``LB1`` under the height metric
all select an entity that splits the sub-collection most evenly, so they
share one exact integer ranking key, ``(|2*n1 - n|, eid)``
(:mod:`repro.core.kernels.scoring` states why the key is exact, and
``tests/test_scoring_keys.py`` checks it against the float scores).  The
lemma does *not* hold for ``LB1`` under average depth: Eq. 1's ceiling
makes ``LB1[AD]`` non-monotone in evenness from 35 sets on (a 16/19 split
bounds at 5.1429, a 17/18 split at 5.1714), so :class:`LB1Selector` with
:data:`~repro.core.bounds.AD` ranks by its float bound first.

All selectors share the :class:`EntitySelector` interface used by tree
construction (Algorithm 3) and interactive discovery (Algorithm 2):
``select(collection, mask, candidates=None, exclude=frozenset())``.
``exclude`` supports the "don't know" extension of Sec. 6, where entities the
user could not answer are removed from consideration.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Collection as AbcCollection
from typing import Iterable

from .bounds import AD, H, CostMetric
from .collection import SetCollection
from .kernels import filter_excluded, select_best


class NoInformativeEntityError(RuntimeError):
    """Raised when no informative entity remains to ask about.

    For a sub-collection of two or more *unique* sets this can only happen
    when every distinguishing entity has been excluded (e.g. all answered
    "don't know").
    """


def information_gain(n: int, n1: int) -> float:
    """Eq. 9: information gain of a split of ``n`` sets into ``n1``/``n-n1``.

    Treats every set as its own class (uniform prior), so the parent entropy
    is ``log2 n``.
    """
    n2 = n - n1
    if n1 <= 0 or n2 <= 0:
        return 0.0
    children = (n1 * math.log2(n1) + n2 * math.log2(n2)) / n
    return math.log2(n) - children


def indistinguishable_pairs(n1: int, n2: int) -> int:
    """Eq. 10: pairs of sets a split into ``n1``/``n2`` cannot distinguish."""
    return (n1 * (n1 - 1) + n2 * (n2 - 1)) // 2


def unevenness(n: int, n1: int) -> int:
    """Distance of a split from perfectly even, as the integer ``|2*n1 - n|``.

    Integer-exact, so sorting by it is deterministic; the entity minimising
    it "most evenly partitions the collection".
    """
    return abs(2 * n1 - n)


class EntitySelector(ABC):
    """Interface for next-question selection strategies."""

    #: short name used in experiment reports
    name: str = "?"

    @abstractmethod
    def select(
        self,
        collection: SetCollection,
        mask: int,
        candidates: Iterable[int] | None = None,
        exclude: AbcCollection[int] = frozenset(),
    ) -> int:
        """Return the entity id to ask about next for sub-collection ``mask``.

        Raises :class:`NoInformativeEntityError` when nothing informative is
        available (e.g. everything excluded).
        """

    def reset(self) -> None:
        """Drop any per-run caches; default selectors are stateless."""

    #: True when :meth:`select` is exactly the most-even choice: the
    #: informative entity minimising ``(|2*n1 - n|, eid)``.  The serving
    #: scheduler then ranks every such session of a flush in one batched
    #: pass (:func:`~repro.core.kernels.scoring.select_best_many`);
    #: selectors without it fall back to their own :meth:`select`.
    most_even: bool = False

    def _informative(
        self,
        collection: SetCollection,
        mask: int,
        candidates: Iterable[int] | None,
        exclude: AbcCollection[int],
    ) -> list[tuple[int, int]]:
        pairs = collection.informative_entities(mask, candidates)
        if exclude:
            pairs = [(e, c) for e, c in pairs if e not in exclude]
        if not pairs:
            raise NoInformativeEntityError(
                f"no informative entity for a sub-collection of "
                f"{collection.count(mask)} sets"
            )
        return pairs

    def _informative_stats(
        self,
        collection: SetCollection,
        mask: int,
        candidates: Iterable[int] | None,
        exclude: AbcCollection[int],
    ) -> tuple:
        """Batched form of :meth:`_informative`: ``(eids, counts)``.

        Kept parallel (arrays on the numpy backend) so subclasses can rank
        all entities in one vectorized pass instead of a per-entity loop.
        """
        eids, counts = collection.informative_stats(mask, candidates)
        if exclude:
            eids, counts = filter_excluded(eids, counts, exclude)
        if len(eids) == 0:
            raise NoInformativeEntityError(
                f"no informative entity for a sub-collection of "
                f"{collection.count(mask)} sets"
            )
        return eids, counts

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class MostEvenSelector(EntitySelector):
    """Greedy most-even-partition choice (Adler & Heeringa, Sec. 4.2.1)."""

    name = "MostEven"
    most_even = True

    def select(
        self,
        collection: SetCollection,
        mask: int,
        candidates: Iterable[int] | None = None,
        exclude: AbcCollection[int] = frozenset(),
    ) -> int:
        eids, counts = self._informative_stats(
            collection, mask, candidates, exclude
        )
        return select_best(eids, counts, collection.count(mask))


class InfoGainSelector(MostEvenSelector):
    """Information-gain choice (Eq. 9; ID3 [29] / C4.5 [28]).

    Maximises gain, ties broken by the most even partition then by entity
    id, mirroring the paper's evaluation baseline ("InfoGain").  Gain is
    strictly decreasing in the split's unevenness (Lemma 4.3), so this is
    exactly the most-even choice; :func:`information_gain` stays the Eq. 9
    reference the key is tested against.
    """

    name = "InfoGain"


class IndistinguishablePairsSelector(MostEvenSelector):
    """Minimise indistinguishable pairs (Eq. 10; Roy et al. [7]).

    Eq. 10 equals ``(n**2 + d**2)/4 - n/2`` for unevenness ``d``, so the
    minimum is exactly the most-even choice.
    """

    name = "Indg"


class LB1Selector(EntitySelector):
    """1-step cost-lower-bound choice (Sec. 4.2.4), metric-aware.

    Minimises ``LB1(C, e)`` for the configured metric, breaking ties by the
    most even partition (the paper's rule) and then entity id.  Under
    :data:`~repro.core.bounds.H` the bound is weakly increasing in the
    split's unevenness, so the choice is exactly the most-even one; under
    :data:`~repro.core.bounds.AD` it is not (see the module docstring) and
    the float bound ranks first.
    """

    name = "LB1"

    def __init__(self, metric: CostMetric = AD) -> None:
        self.metric = metric
        self.name = f"LB1[{metric.name}]"

    @property
    def most_even(self) -> bool:
        # Identity, not name: only the H singleton is known to be
        # monotone; a metric merely *called* "H" may not be.
        return self.metric is H

    def select(
        self,
        collection: SetCollection,
        mask: int,
        candidates: Iterable[int] | None = None,
        exclude: AbcCollection[int] = frozenset(),
    ) -> int:
        eids, counts = self._informative_stats(
            collection, mask, candidates, exclude
        )
        n = collection.count(mask)
        if self.most_even:
            return select_best(eids, counts, n)
        metric = self.metric
        return select_best(
            eids, counts, n, lambda n, n1: metric.lb1(n1, n - n1)
        )


class RandomSelector(EntitySelector):
    """Uniform-random informative entity — a sanity-check lower baseline.

    Not in the paper's evaluation, but useful to demonstrate how far the
    informed strategies are from uninformed questioning.
    """

    name = "Random"

    def __init__(self, seed: int = 0) -> None:
        import random

        self._rng = random.Random(seed)
        self._seed = seed

    def reset(self) -> None:
        import random

        self._rng = random.Random(self._seed)

    def select(
        self,
        collection: SetCollection,
        mask: int,
        candidates: Iterable[int] | None = None,
        exclude: AbcCollection[int] = frozenset(),
    ) -> int:
        pairs = self._informative(collection, mask, candidates, exclude)
        return self._rng.choice(pairs)[0]
