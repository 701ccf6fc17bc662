"""Sharded execution layer: set-range shards of the index on a thread pool.

Beyond ~10^6 sets the packed bit-matrix row of a single entity no longer
fits the L1/L2 budget of one core, and a stacked multi-session scan walks
``n_entities x ceil(n_sets / 64)`` words per tick — one core streaming the
whole matrix thrashes cache while the other cores idle.  The
:class:`ShardedKernel` partitions the *set axis* into contiguous ranges
(column shards of the bit-matrix) and runs every batched statistic per
shard on a thread pool, merging the per-shard results:

* positive counts are **additive** across set ranges
  (``|mask & em|  ==  sum over shards of |mask_s & em_s|``), so counts
  merge by summation;
* partitions are **disjoint** across set ranges, so positive masks merge
  by shifted OR;
* the informative filter ``0 < count < n`` is applied only *after* the
  merge, on exact integer counts — sharded results are therefore
  bit-identical to the unsharded kernels by construction, which the
  randomized parity harness (``tests/test_parity_fuzz.py``) enforces.

Each shard is a complete sub-kernel (big-int, numpy or native) over the
sliced sets, so the per-shard work reuses all single-kernel routing
(chunked row passes, the set-major CSR gather, fused C sweeps).  The
workers are a :class:`~concurrent.futures.ThreadPoolExecutor`: NumPy's
AND/popcount ufuncs and the native extension's C passes release the GIL,
so column shards genuinely overlap.  It is the only executor because
process pools, shared-memory shard workers and an in-C pthread pool did
not beat it when measured (``docs/kernels.md``, *Routing constants*).
"""

from __future__ import annotations

from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Sequence

from .base import EntityStatsKernel, KernelDelta
from .bigint import BigIntKernel
from .native_backend import HAS_NATIVE, NativeKernel
from .numpy_backend import HAS_NUMPY, NumpyKernel

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]


class ShardedKernel(EntityStatsKernel):
    """Entity statistics merged from per-set-range sub-kernels.

    Parameters
    ----------
    shards:
        Requested shard count; capped at one set per shard.  The effective
        count is exposed as :attr:`n_shards`.
    base:
        Inner backend per shard: ``"bigint"``, ``"numpy"`` or ``"native"``.
    """

    def __init__(
        self,
        sets: Sequence[frozenset[int]],
        entity_masks: dict[int, int],
        n_sets: int,
        shards: int,
        base: str = "numpy",
    ) -> None:
        super().__init__(sets, entity_masks, n_sets)
        if base == "numpy" and not HAS_NUMPY:  # pragma: no cover
            raise RuntimeError("numpy shard base requires numpy")
        if base == "native" and not HAS_NATIVE:  # pragma: no cover
            raise RuntimeError(
                "native shard base requires the compiled extension"
            )
        self.base_name = base
        n = max(1, min(int(shards), max(n_sets, 1)))
        # Equal set ranges; exact for any split because each shard repacks
        # its slice of the index (no word alignment required).
        self._bounds = [
            (n_sets * s // n, n_sets * (s + 1) // n) for s in range(n)
        ]
        # NativeKernel is-a NumpyKernel, so all the per-shard routing below
        # (isinstance checks, CSR gathers) applies to both vectorized bases;
        # only the class constructed here differs.
        kernel_cls: type[EntityStatsKernel] = {
            "bigint": BigIntKernel,
            "numpy": NumpyKernel,
            "native": NativeKernel,
        }[base]
        self._shards: list[EntityStatsKernel] = []
        for lo, hi in self._bounds:
            width = hi - lo
            valid = (1 << width) - 1
            sliced = {e: (m >> lo) & valid for e, m in entity_masks.items()}
            self._shards.append(kernel_cls(sets[lo:hi], sliced, width))
        self.n_shards = len(self._shards)
        self.name = f"{base}[x{self.n_shards}]"
        self._all_eids = self._entity_frame(entity_masks)
        self._pool: ThreadPoolExecutor | None = None

    def _entity_frame(self, entity_masks: dict[int, int]) -> Sequence[int]:
        """Ascending entity ids, as an array for the vectorized bases."""
        if HAS_NUMPY and self.base_name in ("numpy", "native"):
            return np.fromiter(
                sorted(entity_masks), dtype=np.int64, count=len(entity_masks)
            )
        return sorted(entity_masks)

    # ------------------------------------------------------------------ #
    # Copy-on-write delta construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_delta(
        cls,
        old: "ShardedKernel",
        sets: Sequence[frozenset[int]],
        entity_masks: dict[int, int],
        n_sets: int,
        delta: KernelDelta,
    ) -> "ShardedKernel | None":
        """Sharded kernel over a delta-applied index, reusing clean shards.

        Shard bounds are inherited, with only the last shard's upper bound
        following ``n_sets`` — so a delta touching one set range rebuilds
        only the shards whose ``[lo, hi)`` it intersects; every other
        sub-kernel object is *shared* with the parent (sub-kernels are
        content-immutable, and entities absent from a shard's sliced index
        count 0 there).  Shards with a vectorized base are additionally
        rebuilt whenever the entity key set changed, because their
        set-major gather returns counts positionally aligned to the shard's
        own row frame and that frame must match :attr:`_all_eids`; a
        big-int shard indexes entities by id and reuses fine.  Dirty
        vectorized shards patch via :meth:`NumpyKernel.from_delta`.

        Returns ``None`` when the inherited bounds cannot represent the new
        size (the set axis shrank past the last shard's start, or to a
        single set) — the caller falls back to a fresh
        :func:`~repro.core.kernels.make_kernel`.
        """
        if n_sets <= old._bounds[-1][0] or n_sets <= 1:
            return None
        self = cls.__new__(cls)
        EntityStatsKernel.__init__(self, sets, entity_masks, n_sets)
        self.base_name = old.base_name
        bounds = list(old._bounds[:-1]) + [(old._bounds[-1][0], n_sets)]
        self._bounds = bounds
        rows_changed = entity_masks.keys() != old._entity_masks.keys()
        dirty_shards: set[int] = set()
        if n_sets != old._n_sets:
            dirty_shards.add(len(bounds) - 1)
        shard_los = [lo for lo, _ in bounds]
        for slot in delta.dirty_new:
            dirty_shards.add(bisect_right(shard_los, slot) - 1)
        shards: list[EntityStatsKernel] = []
        for s, (lo, hi) in enumerate(bounds):
            old_shard = old._shards[s]
            vectorized = isinstance(old_shard, NumpyKernel)
            if s not in dirty_shards and not (rows_changed and vectorized):
                shards.append(old_shard)
                continue
            width = hi - lo
            valid = (1 << width) - 1
            sliced = {e: (m >> lo) & valid for e, m in entity_masks.items()}
            if vectorized:
                hi_old = old._bounds[s][1]
                local = KernelDelta(
                    dirty_new=tuple(
                        j - lo for j in delta.dirty_new if lo <= j < hi
                    ),
                    dirty_old=tuple(
                        j - lo for j in delta.dirty_old if lo <= j < hi_old
                    ),
                )
                shards.append(
                    type(old_shard).from_delta(
                        old_shard, sets[lo:hi], sliced, width, local
                    )
                )
            else:
                shards.append(BigIntKernel(sets[lo:hi], sliced, width))
        self._shards = shards
        self.n_shards = len(shards)
        self.name = f"{self.base_name}[x{self.n_shards}]"
        self._all_eids = (
            self._entity_frame(entity_masks) if rows_changed else old._all_eids
        )
        self._pool = None
        return self

    # ------------------------------------------------------------------ #
    # Thread-pool plumbing
    # ------------------------------------------------------------------ #

    def _run(self, calls: "list[tuple[str, tuple]]") -> list:
        """Run ``(method name, args)`` tasks against self, one per shard."""
        if len(calls) <= 1:
            return [getattr(self, method)(*args) for method, args in calls]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_shards, thread_name_prefix="repro-shard"
            )
        futures = [
            self._pool.submit(getattr(self, method), *args)
            for method, args in calls
        ]
        return [f.result() for f in futures]

    def close(self) -> None:
        """Shut the thread pool down; the next parallel call starts a new one."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Slicing and merging helpers
    # ------------------------------------------------------------------ #

    def _slice(self, mask: int, shard: int) -> int:
        lo, hi = self._bounds[shard]
        return (mask >> lo) & ((1 << (hi - lo)) - 1)

    @staticmethod
    def _materialize(eids: Iterable[int]) -> Sequence[int]:
        if np is not None and isinstance(eids, np.ndarray):
            return eids
        return list(eids)

    def _merge_counts(self, parts: list, length: int):
        """Sum per-shard count vectors; ``None`` entries are all-zero."""
        live = [p for p in parts if p is not None]
        if not live:
            if np is not None and self.base_name in ("numpy", "native"):
                return np.zeros(length, dtype=np.int64)
            return [0] * length
        if np is not None and isinstance(live[0], np.ndarray):
            total = live[0]
            for p in live[1:]:
                total = total + p
            return total
        return [sum(vals) for vals in zip(*live)]

    # ------------------------------------------------------------------ #
    # Per-shard work units (run on the pool threads)
    # ------------------------------------------------------------------ #

    def _shard_counts(self, shard: int, shard_mask: int, eids):
        return self._shards[shard].positive_counts(shard_mask, eids)

    def _shard_all_counts(self, shard: int, shard_mask: int):
        """Per-entity counts of one shard mask over *all* entities.

        Numpy shards route through the kernel's own cost model (set-major
        gather for membership-bound masks, row pass otherwise); the big-int
        shard falls back to a plain counts pass.
        """
        kernel = self._shards[shard]
        if isinstance(kernel, NumpyKernel):
            n1 = shard_mask.bit_count()
            if kernel._route_set_major(n1, len(kernel._row_eids)):
                return kernel._counts_by_members(
                    shard_mask, kernel._words_of(shard_mask)
                )
        return kernel.positive_counts(shard_mask, self._all_eids)

    def _shard_partitions(self, shard: int, shard_mask: int, eids):
        return self._shards[shard].partition_many(shard_mask, eids)

    def _shard_scan_block(
        self,
        shard: int,
        full_masks: Sequence[int],
        cand_pairs: "Sequence[tuple[int, Sequence[int]]]",
    ) -> tuple[list, list]:
        """All of one shard's work for a stacked scan: full + hinted masks.

        Full-entity masks that are width-bound for this shard go through
        the inner kernel's stacked chunked row pass in one call; the rest
        use the set-major gather.  Masks whose slice is empty in this shard
        contribute nothing and are skipped (deep session masks concentrate
        in one shard).
        """
        kernel = self._shards[shard]
        full_counts: list = [None] * len(full_masks)
        stacked: list[int] = []
        for j, mask in enumerate(full_masks):
            sm = self._slice(mask, shard)
            if sm == 0:
                continue
            if isinstance(kernel, NumpyKernel) and kernel._route_set_major(
                sm.bit_count(), len(kernel._row_eids)
            ):
                full_counts[j] = kernel._counts_by_members(
                    sm, kernel._words_of(sm)
                )
            else:
                stacked.append(j)
        if stacked:
            rows = kernel.positive_counts_many(
                [self._slice(full_masks[j], shard) for j in stacked],
                self._all_eids,
            )
            for j, counts in zip(stacked, rows):
                full_counts[j] = counts
        # Pairs sharing one eids sequence (positive_counts_many hands every
        # mask the same entities) go through the inner kernel's *stacked*
        # counts pass — one row lookup + chunked broadcast instead of a
        # per-mask loop; singletons keep the direct call.
        cand_counts: list = [None] * len(cand_pairs)
        by_eids: dict[int, tuple] = {}
        for j, (mask, eids) in enumerate(cand_pairs):
            sm = self._slice(mask, shard)
            if sm == 0:
                continue
            by_eids.setdefault(id(eids), (eids, []))[1].append((j, sm))
        for eids, items in by_eids.values():
            if len(items) == 1:
                j, sm = items[0]
                cand_counts[j] = kernel.positive_counts(sm, eids)
            else:
                counts = kernel.positive_counts_many(
                    [sm for _, sm in items], eids
                )
                for (j, _), row in zip(items, counts):
                    cand_counts[j] = row
        return full_counts, cand_counts

    # ------------------------------------------------------------------ #
    # EntityStatsKernel API (merged across shards)
    # ------------------------------------------------------------------ #

    def positive_counts(self, mask: int, eids: Iterable[int]):
        eids = self._materialize(eids)
        parts = self._run(
            [
                ("_shard_counts", (s, self._slice(mask, s), eids))
                for s in range(self.n_shards)
                if self._slice(mask, s)
            ]
        )
        return self._merge_counts(parts, len(eids))

    def positive_counts_many(
        self, masks: Sequence[int], eids: Iterable[int]
    ) -> list:
        if not masks:
            return []
        eids = self._materialize(eids)
        pairs = [(m, eids) for m in masks]
        parts = self._run(
            [
                ("_shard_scan_block", (s, (), pairs))
                for s in range(self.n_shards)
            ]
        )
        return [
            self._merge_counts([p[1][i] for p in parts], len(eids))
            for i in range(len(masks))
        ]

    def partition_many(
        self, mask: int, eids: Iterable[int]
    ) -> list[tuple[int, int]]:
        eids = self._materialize(eids)
        shards = [s for s in range(self.n_shards) if self._slice(mask, s)]
        parts = self._run(
            [
                ("_shard_partitions", (s, self._slice(mask, s), eids))
                for s in shards
            ]
        )
        out = []
        for row in range(len(eids)):
            positive = 0
            for s, shard_parts in zip(shards, parts):
                positive |= shard_parts[row][0] << self._bounds[s][0]
            out.append((positive, mask & ~positive))
        return out

    def scan_informative(
        self,
        mask: int,
        n_selected: int,
        candidates: Iterable[int] | None,
    ) -> tuple[Sequence[int], Sequence[int]]:
        if candidates is None:
            eids = self._all_eids
            parts = self._run(
                [
                    ("_shard_all_counts", (s, self._slice(mask, s)))
                    for s in range(self.n_shards)
                    if self._slice(mask, s)
                ]
            )
            counts = self._merge_counts(parts, len(eids))
        else:
            eids = self._materialize(candidates)
            counts = self.positive_counts(mask, eids)
        return self._filter_informative(eids, counts, n_selected)

    def scan_informative_many(
        self,
        masks: Sequence[int],
        ns: Sequence[int],
        candidates_list: "Sequence[Iterable[int] | None] | None" = None,
    ) -> list[tuple[Sequence[int], Sequence[int]]]:
        if not masks:
            return []
        cands = candidates_list or [None] * len(masks)
        full_idx = [i for i in range(len(masks)) if cands[i] is None]
        cand_idx = [i for i in range(len(masks)) if cands[i] is not None]
        cand_eids = [self._materialize(cands[i]) for i in cand_idx]
        full_masks = [masks[i] for i in full_idx]
        cand_pairs = list(
            zip((masks[i] for i in cand_idx), cand_eids)
        )
        parts = self._run(
            [
                ("_shard_scan_block", (s, full_masks, cand_pairs))
                for s in range(self.n_shards)
            ]
        )
        results: list = [None] * len(masks)
        for j, i in enumerate(full_idx):
            counts = self._merge_counts(
                [p[0][j] for p in parts], len(self._all_eids)
            )
            results[i] = self._filter_informative(
                self._all_eids, counts, ns[i]
            )
        for j, i in enumerate(cand_idx):
            counts = self._merge_counts(
                [p[1][j] for p in parts], len(cand_eids[j])
            )
            results[i] = self._filter_informative(cand_eids[j], counts, ns[i])
        return results

    @staticmethod
    def _filter_informative(eids, counts, n_selected: int):
        if np is not None and isinstance(counts, np.ndarray):
            if not isinstance(eids, np.ndarray):
                eids = np.fromiter(
                    (int(e) for e in eids), dtype=np.int64, count=len(eids)
                )
            keep = (counts > 0) & (counts < n_selected)
            return eids[keep], counts[keep]
        kept = [
            (int(e), int(c))
            for e, c in zip(eids, counts)
            if 0 < c < n_selected
        ]
        return [e for e, _ in kept], [c for _, c in kept]

    def __repr__(self) -> str:
        return f"<ShardedKernel base={self.base_name} shards={self.n_shards}>"
