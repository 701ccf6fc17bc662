"""k-step lookahead entity selection with pruning (Sec. 4.3-4.4).

This module implements the paper's central algorithmic contribution:

* :class:`KLPSelector` — Algorithm 1, *k-Lookahead with Pruning* (k-LP), and
  via its ``q``/``variable`` parameters the two beam variants:

  - **k-LPLE** (Sec. 4.4.2): only the ``q`` most evenly partitioning
    entities are expanded at *every* step of the bound calculation;
  - **k-LPLVE** (Sec. 4.4.3): ``q`` entities at the step invoked from
    outside, a single entity in every recursive step.

The pruning strategy (Sec. 4.3, Lemma 4.4) is safe: an entity ``e2`` whose
cheap low-step bound already reaches the best k-step bound found so far
(AFLV) cannot beat it, because bounds are monotone non-decreasing in the
number of lookahead steps (Lemmas 4.1-4.2).  Concretely:

1. entities are expanded in most-even-first order and the first entity
   whose 1-step bound reaches the AFLV prunes *all* remaining entities
   (Algorithm 1, l. 14-15).  That break is exact under H, whose 1-step
   bound is non-decreasing in most-even order.  Under AD it is not, from
   35 sets on (Eq. 1's ceiling gives ``AD.lb1(16, 19) < AD.lb1(17, 18)``),
   so the break can prune an entity whose bound is still under the AFLV;
2. recursive calls receive derived upper limits (Eqs. 11-14); a recursion
   that cannot produce a bound under its limit aborts the current entity
   (l. 24-25, 31-32);
3. results are memoised per ``(sub-collection, k)`` (l. 1-6, 9, 37) — the
   cache outlives a single selection, so sibling nodes of one tree
   construction share work.

Instrumentation: with ``collect_stats=True`` the selector records, per
top-level selection, how many informative entities existed and how many were
actually expanded, which regenerates the paper's Table 4 and the ">99%
pruned at the root" claim of Sec. 5.3.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection as AbcCollection
from typing import Iterable

from .bitmask import popcount
from .bounds import AD, INFINITY, CostMetric
from .collection import SetCollection
from .kernels import filter_excluded, sort_most_even
from .selection import EntitySelector, NoInformativeEntityError


@dataclass
class NodeRecord:
    """Pruning outcome of one top-level selection (one tree node)."""

    n_sets: int
    n_informative: int
    n_expanded: int

    @property
    def pruned_fraction(self) -> float:
        """Fraction of candidate entities never expanded at this node."""
        if self.n_informative == 0:
            return 0.0
        return 1.0 - self.n_expanded / self.n_informative


@dataclass
class PruningStats:
    """Aggregate pruning statistics across the nodes of a run (Table 4)."""

    records: list[NodeRecord] = field(default_factory=list)
    cache_hits: int = 0
    recursive_calls: int = 0

    def add(self, record: NodeRecord) -> None:
        self.records.append(record)

    @property
    def average_pruned(self) -> float:
        """Mean pruned fraction over all recorded nodes."""
        if not self.records:
            return 0.0
        return sum(r.pruned_fraction for r in self.records) / len(self.records)

    @property
    def min_pruned(self) -> float:
        """Minimum pruned fraction over all recorded nodes."""
        if not self.records:
            return 0.0
        return min(r.pruned_fraction for r in self.records)

    @property
    def root_pruned(self) -> float:
        """Pruned fraction at the first recorded node (the tree root)."""
        if not self.records:
            return 0.0
        return self.records[0].pruned_fraction

    def clear(self) -> None:
        self.records.clear()
        self.cache_hits = 0
        self.recursive_calls = 0


class KLPSelector(EntitySelector):
    """Algorithm 1: k-Lookahead with Pruning, plus the beam variants.

    Parameters
    ----------
    k:
        Lookahead depth (k >= 1).  ``k=1`` coincides with the InfoGain /
        most-even baseline (Lemma 4.3).  If k reaches the height of an
        optimal tree, the selection is optimal (Sec. 4.4.1).
    metric:
        :data:`~repro.core.bounds.AD` or :data:`~repro.core.bounds.H`.
    q:
        Beam width: expand only the ``q`` most evenly splitting entities per
        step.  ``None`` means unlimited (plain k-LP).
    variable:
        When true (k-LPLVE), the beam is ``q`` at the externally invoked
        step and 1 in all recursive steps.
    collect_stats:
        Record per-node pruning statistics in :attr:`stats`.
    """

    def __init__(
        self,
        k: int = 2,
        metric: CostMetric = AD,
        q: int | None = None,
        variable: bool = False,
        collect_stats: bool = False,
    ) -> None:
        if k < 1:
            raise ValueError(f"lookahead depth must be >= 1, got {k}")
        if q is not None and q < 1:
            raise ValueError(f"beam width must be >= 1, got {q}")
        if variable and q is None:
            raise ValueError("k-LPLVE requires a beam width q")
        self.k = k
        self.metric = metric
        self.q = q
        self.variable = variable
        self.stats = PruningStats() if collect_stats else None
        self._cache: dict[tuple[int, int, int | None], tuple[int | None, float]] = {}
        if q is None:
            self.name = f"{k}-LP[{metric.name}]"
        elif variable:
            self.name = f"{k}-LPLVE[{metric.name},q={q}]"
        else:
            self.name = f"{k}-LPLE[{metric.name},q={q}]"

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Drop the memoisation cache (call between unrelated collections).

        The cache keys are sub-collection masks, which are only meaningful
        relative to one collection; reusing a selector across collections
        without a reset would silently mix them.
        """
        self._cache.clear()
        if self.stats is not None:
            self.stats.clear()

    def select(
        self,
        collection: SetCollection,
        mask: int,
        candidates: Iterable[int] | None = None,
        exclude: AbcCollection[int] = frozenset(),
    ) -> int:
        n = popcount(mask)
        if n < 2:
            raise ValueError(
                "selection needs at least two candidate sets; "
                f"sub-collection has {n}"
            )
        entity, _ = self._klp(
            collection,
            mask,
            min(self.k, n - 1),
            INFINITY,
            self.q,
            candidates,
            exclude,
            top_level=True,
        )
        if entity is None:
            raise NoInformativeEntityError(
                f"no informative entity for a sub-collection of {n} sets"
            )
        return entity

    def lower_bound(
        self,
        collection: SetCollection,
        mask: int | None = None,
        k: int | None = None,
    ) -> float:
        """``LB_k(C)``: the best k-step bound Algorithm 1 finds.

        Beam limits (``q``) do *not* apply here — the bound quantifies the
        collection, not the beam.  Under H this is the true Eq. 8 value.
        Under AD it can exceed Eq. 8, because the most-even order and its
        sorted break are not bound order there: at ``k = 1`` it is the
        bound of the most even entity, 5.1714 for a 17/18 split of 35
        sets where a 16/19 split bounds at 5.1429.
        """
        if mask is None:
            mask = collection.full_mask
        if k is None:
            k = self.k
        n = popcount(mask)
        if n <= 1:
            return 0.0
        if k == 0:
            return self.metric.lb0(n)
        _, bound = self._klp(
            collection, mask, min(k, n - 1), INFINITY, None, None, frozenset()
        )
        return bound

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #

    def _klp(
        self,
        coll: SetCollection,
        mask: int,
        k: int,
        ul: float,
        limit: int | None,
        candidates: Iterable[int] | None,
        exclude: AbcCollection[int],
        top_level: bool = False,
    ) -> tuple[int | None, float]:
        """Returns ``(entity, bound)``; entity is ``None`` when every
        candidate was pruned against the upper limit ``ul``."""
        stats = self.stats
        if stats is not None and not top_level:
            stats.recursive_calls += 1
        cacheable = not exclude
        # Instrumented top-level selections recompute on purpose: a cache
        # hit would skip the node's pruning record and Table 4 counts
        # pruning at *every* node.  Children stay cached, so the recompute
        # is a single cheap pass.
        read_cache = cacheable and not (top_level and stats is not None)
        key = (mask, k, limit)
        if read_cache:
            hit = self._cache.get(key)
            if hit is not None:
                entity, bound = hit
                if stats is not None:
                    stats.cache_hits += 1
                if ul <= bound:
                    return None, bound
                if entity is not None:
                    return entity, bound
                # A cached *failure* under a smaller limit says nothing for
                # the larger ``ul``: fall through and recompute.
        metric = self.metric
        n = popcount(mask)
        eids, counts = coll.informative_stats(mask, candidates)
        if exclude:
            eids, counts = filter_excluded(eids, counts, exclude)
        if len(eids) == 0:
            return None, metric.lb0(n)
        # Most-even-first order.  Lines 14-15 of Algorithm 1 take it for
        # non-decreasing 1-step-bound order: true under H, not under AD
        # from 35 sets on (see the module docstring).
        pairs = sort_most_even(eids, counts, n)
        if k == 1:
            eid, cnt = pairs[0]
            bound = metric.lb1(cnt, n - cnt)
            if cacheable:
                self._cache[key] = (eid, bound)
            if stats is not None and top_level:
                stats.add(NodeRecord(n, len(pairs), 1))
            if ul <= bound:
                return None, bound
            return eid, bound
        beam = pairs if limit is None or len(pairs) <= limit else pairs[:limit]
        child_limit = 1 if self.variable else limit
        child_candidates = [e for e, _ in pairs]
        best_entity: int | None = None
        expanded = 0
        for eid, cnt in beam:
            n1, n2 = cnt, n - cnt
            if metric.lb1(n1, n2) >= ul:
                break  # sorted order => all remaining entities pruned
            expanded += 1
            pos, neg = coll.partition(mask, eid)
            if n1 == 1:
                l1 = 0.0
            else:
                ul1 = metric.upper_limit_first(ul, n1, metric.lb0(n2), n2)
                e1, l1 = self._klp(
                    coll, pos, k - 1, ul1, child_limit, child_candidates, exclude
                )
                if e1 is None:
                    continue  # first child cannot beat the limit (l. 24-25)
            if n2 == 1:
                l2 = 0.0
            else:
                ul2 = metric.upper_limit_second(ul, n2, l1, n1)
                e2, l2 = self._klp(
                    coll, neg, k - 1, ul2, child_limit, child_candidates, exclude
                )
                if e2 is None:
                    continue  # second child cannot beat the limit (l. 31-32)
            bound = metric.combine(n1, l1, n2, l2)
            if bound < ul:
                ul = bound
                best_entity = eid
        if cacheable:
            self._cache[key] = (best_entity, ul)
        if stats is not None and top_level:
            stats.add(NodeRecord(n, len(pairs), expanded))
        return best_entity, ul


def klp(
    k: int = 2,
    metric: CostMetric = AD,
) -> KLPSelector:
    """Convenience constructor for plain k-LP."""
    return KLPSelector(k=k, metric=metric)


def klple(
    k: int = 3,
    q: int = 10,
    metric: CostMetric = AD,
) -> KLPSelector:
    """Convenience constructor for k-LPLE (paper default: k=3, q=10)."""
    return KLPSelector(k=k, metric=metric, q=q, variable=False)


def klplve(
    k: int = 3,
    q: int = 10,
    metric: CostMetric = AD,
) -> KLPSelector:
    """Convenience constructor for k-LPLVE (paper default: k=3, q=10)."""
    return KLPSelector(k=k, metric=metric, q=q, variable=True)
