"""Batched scoring of entity split statistics, backend-agnostic.

Every batch-scored selector ranks informative entities by one exact
integer key, ``(|2*n1 - n|, entity id)``: the most even split first, ties
to the smallest id.  By Lemma 4.3 this is also the ranking of information
gain (Eq. 9), indistinguishable pairs (Eq. 10) and the height bound
``LB1[H]`` (Eq. 4), because each is a monotone function of the unevenness
``d = |2*n1 - n|`` alone:

* Eq. 10 is ``(n**2 + d**2)/4 - n/2`` in exact integers;
* ``LB1[H]`` is ``ceil(log2((n + d)/2)) + 1``, weakly increasing in ``d``;
* Eq. 9's float gain is strictly decreasing in ``d`` and bitwise
  symmetric in ``n1 <-> n - n1`` (``tests/test_scoring_keys.py`` checks
  every ``n <= 3000`` and every ``n1`` of sampled ``n`` up to 100,000
  against the scalar reference).

The float rankings these selectors once used, ``(score, d, eid)``, broke
every float tie by ``d``, so only a strict inversion could separate them
from the integer key, and there is none.  The average-depth bound
``LB1[AD]`` (Eq. 3) is the exception: Eq. 1's ceiling makes it
non-monotone in ``d`` from ``n = 35`` on (``lb1(16, 19) < lb1(17, 18)``),
so :func:`select_best` keeps a float ``primary`` for it alone and the
serving scheduler never batch-scores it.

On NumPy arrays (numpy/native backends) ranking is a handful of
vectorized passes; on plain lists (the big-int backend) the equivalent
Python loop runs.  Either way the entity returned is the minimum under the
exact lexicographic key, so cross-backend parity of selections (ties
included) holds by construction.
"""

from __future__ import annotations

from typing import Callable, Sequence

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]


def _is_array(values: object) -> bool:
    return np is not None and isinstance(values, np.ndarray)


def filter_excluded(
    eids: Sequence[int],
    counts: Sequence[int],
    exclude: "frozenset[int] | set[int] | Sequence[int]",
) -> tuple[Sequence[int], Sequence[int]]:
    """Drop excluded entities ("don't know" answers, Sec. 6) from stats."""
    if not exclude:
        return eids, counts
    if _is_array(eids):
        drop = np.fromiter(exclude, dtype=np.int64, count=len(exclude))
        keep = ~np.isin(eids, drop)
        return eids[keep], counts[keep]
    kept = [(e, c) for e, c in zip(eids, counts) if e not in exclude]
    return [e for e, _ in kept], [c for _, c in kept]


def select_best(
    eids: Sequence[int],
    counts: Sequence[int],
    n: int,
    primary: Callable[[int, int], float] | None = None,
) -> int:
    """Entity minimising the most-even key ``(|2*n1 - n|, eid)``.

    ``primary`` prepends a float score, ranking by ``(primary(n, n1),
    |2*n1 - n|, eid)``; only ``LB1[AD]``, whose bound is not monotone in
    the split's evenness, needs it.  ``eids`` must be non-empty.
    """
    if _is_array(eids):
        counts = counts.astype(np.int64, copy=False)
        unevenness = np.abs(2 * counts - n)
        if primary is None:
            return int(eids[unevenness == unevenness.min()].min())
        # One exact scalar evaluation per distinct count, then gathered.
        unique, inverse = np.unique(counts, return_inverse=True)
        scores = np.array([primary(n, int(c)) for c in unique])[inverse]
        return int(eids[np.lexsort((eids, unevenness, scores))[0]])
    pairs = [(int(e), int(c)) for e, c in zip(eids, counts)]
    assert pairs, "select_best requires at least one entity"
    if primary is None:
        key = lambda ec: (abs(2 * ec[1] - n), ec[0])  # noqa: E731
    else:
        key = lambda ec: (primary(n, ec[1]), abs(2 * ec[1] - n), ec[0])  # noqa: E731
    return min(pairs, key=key)[0]


def select_best_many(
    eids_list: "Sequence[Sequence[int]]",
    counts_list: "Sequence[Sequence[int]]",
    ns: Sequence[int],
) -> list[int]:
    """:func:`select_best` with the most-even key over many groups at once.

    Each group ``i`` is ``(eids_list[i], counts_list[i], ns[i])`` and every
    group must be non-empty.  The result is exactly ``[select_best(e, c,
    n) for ...]``, computed as two segmented integer minima over the
    concatenated groups: the serving scheduler ranks the selections of
    every session of a flush in one pass.
    """
    if not eids_list:
        return []
    if np is None or not all(_is_array(e) for e in eids_list):
        return [
            select_best(e, c, int(n))
            for e, c, n in zip(eids_list, counts_list, ns)
        ]
    lengths = np.fromiter(
        (len(e) for e in eids_list), dtype=np.int64, count=len(eids_list)
    )
    starts = np.zeros(len(eids_list), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    seg = np.repeat(np.arange(len(eids_list), dtype=np.int64), lengths)
    eids = np.concatenate(eids_list)
    counts = np.concatenate(counts_list).astype(np.int64, copy=False)
    unevenness = np.abs(2 * counts - np.asarray(ns, dtype=np.int64)[seg])
    # Narrow each group to its most even entities, then take the least id.
    best = np.minimum.reduceat(unevenness, starts)[seg]
    masked = np.where(unevenness == best, eids, np.iinfo(np.int64).max)
    return np.minimum.reduceat(masked, starts).tolist()


def sort_most_even(
    eids: Sequence[int],
    counts: Sequence[int],
    n: int,
) -> list[tuple[int, int]]:
    """``(eid, n1)`` pairs sorted by ``(|2*n1 - n|, eid)``.

    The most-even-first expansion order of Algorithm 1.  Under the height
    metric this is also non-decreasing 1-step-bound order (``LB1[H]`` is
    weakly increasing in ``|2*n1 - n|``), which the sorted early break of
    k-LP relies on.  Under average depth it is not, from ``n = 35`` on:
    ``AD.lb1(16, 19) < AD.lb1(17, 18)``.
    """
    if _is_array(eids):
        counts = counts.astype(np.int64, copy=False)
        order = np.lexsort((eids, np.abs(2 * counts - n)))
        return list(zip(eids[order].tolist(), counts[order].tolist()))
    pairs = [(int(e), int(c)) for e, c in zip(eids, counts)]
    pairs.sort(key=lambda ec: (abs(2 * ec[1] - n), ec[0]))
    return pairs
