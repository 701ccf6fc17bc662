"""Vectorized backend: the inverted index as a packed ``uint64`` bit-matrix.

Layout: row ``r`` of ``matrix`` (shape ``(n_entities, ceil(n_sets / 64))``)
is the little-endian 64-bit-word packing of entity ``row_eids[r]``'s big-int
set mask.  A sub-collection mask packs the same way into one word vector, so
the split counts of *all* candidate entities are one broadcast AND plus one
batched popcount::

    counts = popcount(matrix & mask_words).sum(axis=1)

which replaces the per-entity Python loop of the big-int reference with a
handful of C-level passes.  Big-int masks remain the sub-collection currency
of the whole package; packing/unpacking happens only at the kernel boundary
(``int.to_bytes`` / ``int.from_bytes`` are C-speed).

For small sub-collections deep in lookahead recursions a full-matrix pass
would touch far more rows than the union of member sets; below a fixed
cost-model crossover (:mod:`repro.core.kernels.tuning`) the scan switches to
the set-major CSR gather (or, on tiny collections, to gathering just the
member union's rows).  All paths return identical, ascending-entity-id
results — routing is a throughput decision, never a semantic one.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

from .base import EntityStatsKernel, KernelDelta
from .tuning import CSR_MIN_MEMBERSHIP, get_tuning

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]

HAS_NUMPY = np is not None

if HAS_NUMPY and hasattr(np, "bitwise_count"):

    def _popcount_rows(words: "np.ndarray") -> "np.ndarray":
        """Popcount of a uint64 word array, summed over the last axis."""
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)

elif HAS_NUMPY:  # pragma: no cover - NumPy < 2.0 fallback

    def _popcount_rows(words: "np.ndarray") -> "np.ndarray":
        flat = words.reshape(-1, words.shape[-1])
        bits = np.unpackbits(flat.view(np.uint8), axis=1)
        return bits.sum(axis=1, dtype=np.int64).reshape(words.shape[:-1])


#: Byte budget for the ``(n_entities, chunk, n_words)`` temporary of the
#: stacked full-matrix scan; masks beyond it are processed in chunks.
_STACKED_SCAN_BUDGET = 32 << 20


class NumpyKernel(EntityStatsKernel):
    """Entity statistics via one batched popcount over a bit-matrix."""

    name = "numpy"

    def __init__(
        self,
        sets: Sequence[frozenset[int]],
        entity_masks: dict[int, int],
        n_sets: int,
    ) -> None:
        if not HAS_NUMPY:  # pragma: no cover - guarded by resolve_backend_name
            raise RuntimeError("NumpyKernel requires numpy")
        super().__init__(sets, entity_masks, n_sets)
        self._tuning = get_tuning()
        self._n_words = max(1, (n_sets + 63) // 64)
        self._n_bytes = self._n_words * 8
        row_eids = np.fromiter(
            sorted(entity_masks), dtype=np.int64, count=len(entity_masks)
        )
        matrix = np.empty((len(row_eids), self._n_words), dtype=np.uint64)
        for row, eid in enumerate(row_eids.tolist()):
            matrix[row] = np.frombuffer(
                entity_masks[eid].to_bytes(self._n_bytes, "little"),
                dtype=np.uint64,
            )
        self._row_eids = row_eids
        self._matrix = matrix
        self._row_of = {eid: row for row, eid in enumerate(row_eids.tolist())}
        # Set-major (CSR) mirror of the index, built lazily by the stacked
        # scans: row indices of each set's members, concatenated.
        self._set_indptr: "np.ndarray | None" = None
        self._set_flat_rows: "np.ndarray | None" = None
        # When entity ids are dense (0..E-1, the common Universe interning
        # outcome), row index == entity id and array-valued candidate
        # lookups skip the per-element dict walk entirely.
        self._rows_dense = bool(
            len(row_eids)
            and int(row_eids[0]) == 0
            and int(row_eids[-1]) == len(row_eids) - 1
        )
        self._total_membership = sum(len(s) for s in sets)
        self._avg_set_size = self._total_membership / n_sets if n_sets else 0.0

    # ------------------------------------------------------------------ #
    # Copy-on-write delta construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_delta(
        cls,
        old: "NumpyKernel",
        sets: Sequence[frozenset[int]],
        entity_masks: dict[int, int],
        n_sets: int,
        delta: KernelDelta,
    ) -> "NumpyKernel":
        """Kernel over a delta-applied index, patching the parent's matrix.

        The expensive part of :meth:`__init__` is the per-entity big-int
        pack loop over the whole index; a delta touching ``k`` set slots
        only needs those ``k`` *columns* rewritten, so this copies the
        parent matrix (a flat memcpy) and patches the dirty bit columns,
        grouped by 64-bit word.  When the entity row set changed, surviving
        rows are gathered from the parent and rows of brand-new entities
        start zero — correct, because a new entity's membership lies
        entirely in dirty slots, which the patch rewrites wholesale.

        Works for any subclass (the native backend inherits it via
        ``cls``); the parent matrix is never modified, so epoch N readers
        keep an exact snapshot.
        """
        self = cls.__new__(cls)
        EntityStatsKernel.__init__(self, sets, entity_masks, n_sets)
        self._tuning = old._tuning
        self._n_words = max(1, (n_sets + 63) // 64)
        self._n_bytes = self._n_words * 8
        copy_words = min(self._n_words, old._n_words)
        row_eids = np.fromiter(
            sorted(entity_masks), dtype=np.int64, count=len(entity_masks)
        )
        if len(row_eids) == len(old._row_eids) and np.array_equal(
            row_eids, old._row_eids
        ):
            row_eids = old._row_eids  # share the parent's row frame
            self._row_of = old._row_of
            self._rows_dense = old._rows_dense
            if self._n_words == old._n_words:
                matrix = old._matrix.copy()
            else:
                matrix = np.zeros(
                    (len(row_eids), self._n_words), dtype=np.uint64
                )
                matrix[:, :copy_words] = old._matrix[:, :copy_words]
        else:
            matrix = np.zeros((len(row_eids), self._n_words), dtype=np.uint64)
            if len(row_eids) and len(old._row_eids):
                pos = np.searchsorted(old._row_eids, row_eids)
                pos = np.minimum(pos, len(old._row_eids) - 1)
                kept = old._row_eids[pos] == row_eids
                matrix[kept, :copy_words] = old._matrix[pos[kept], :copy_words]
            self._row_of = {
                eid: row for row, eid in enumerate(row_eids.tolist())
            }
            self._rows_dense = bool(
                len(row_eids)
                and int(row_eids[0]) == 0
                and int(row_eids[-1]) == len(row_eids) - 1
            )
        self._row_eids = row_eids
        # Patch the dirty columns, grouped by word: one vectorized clear
        # per touched word, then one row-scatter OR per dirty set.
        row_of = self._row_of
        clear_bits: dict[int, int] = {}
        set_bits: dict[int, list[tuple[int, "np.ndarray"]]] = {}
        for slot in delta.dirty_new:
            word, bit = divmod(slot, 64)
            clear_bits[word] = clear_bits.get(word, 0) | (1 << bit)
            members = sets[slot]
            if members:
                rows = np.fromiter(
                    (row_of[e] for e in members),
                    dtype=np.int64,
                    count=len(members),
                )
                set_bits.setdefault(word, []).append((1 << bit, rows))
        for slot in delta.dirty_old:
            # Vacated/truncated old columns that still fall inside the new
            # word range carry stale bits (shared rows keep the parent's
            # words); clear them.  dirty_new slots are covered above.
            if slot < self._n_words * 64:
                word, bit = divmod(slot, 64)
                clear_bits[word] = clear_bits.get(word, 0) | (1 << bit)
        for word, bits in clear_bits.items():
            if word < self._n_words:
                matrix[:, word] &= np.uint64(0xFFFFFFFFFFFFFFFF ^ bits)
        for word, patches in set_bits.items():
            column = matrix[:, word]
            for bit, rows in patches:
                column[rows] |= np.uint64(bit)
        if n_sets < self._n_words * 64:
            # Bits at/above n_sets select nothing anywhere, but keep the
            # matrix canonical (CSR builds and tests compare it raw).
            tail = n_sets - (self._n_words - 1) * 64
            matrix[:, -1] &= np.uint64((1 << tail) - 1)
        self._matrix = matrix
        self._set_indptr = None  # CSR mirror rebuilt lazily on demand
        self._set_flat_rows = None
        self._total_membership = (
            old._total_membership
            - sum(len(old._sets[j]) for j in delta.dirty_old)
            + sum(len(sets[j]) for j in delta.dirty_new)
        )
        self._avg_set_size = self._total_membership / n_sets if n_sets else 0.0
        return self

    # ------------------------------------------------------------------ #
    # Packing helpers
    # ------------------------------------------------------------------ #

    def _words_of(self, mask: int) -> "np.ndarray":
        """Pack a sub-collection big-int into a uint64 word vector.

        Bits above ``n_sets`` are dropped; they cannot intersect any entity
        mask, and the big-int reference ignores them identically on the
        positive side.
        """
        return np.frombuffer(
            (mask & self._valid).to_bytes(self._n_bytes, "little"),
            dtype=np.uint64,
        )

    def _rows_for(
        self, eids: Iterable[int]
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(row indices, known?)`` arrays for an entity id sequence."""
        if self._rows_dense and isinstance(eids, np.ndarray):
            idx = eids.astype(np.int64, copy=False)
            known = (idx >= 0) & (idx < len(self._row_eids))
            return np.where(known, idx, -1), known
        row_of = self._row_of
        idx = np.fromiter(
            (row_of.get(int(e), -1) for e in eids), dtype=np.int64
        )
        return idx, idx >= 0

    # ------------------------------------------------------------------ #
    # EntityStatsKernel API
    # ------------------------------------------------------------------ #

    def positive_counts(self, mask: int, eids: Iterable[int]) -> "np.ndarray":
        idx, known = self._rows_for(eids)
        words = self._words_of(mask)
        counts = np.zeros(len(idx), dtype=np.int64)
        if known.any():
            counts[known] = _popcount_rows(self._matrix[idx[known]] & words)
        return counts

    def partition_many(
        self, mask: int, eids: Iterable[int]
    ) -> list[tuple[int, int]]:
        idx, known = self._rows_for(eids)
        words = self._words_of(mask)
        positive_words = np.zeros((len(idx), self._n_words), dtype=np.uint64)
        if known.any():
            positive_words[known] = self._matrix[idx[known]] & words
        out = []
        for row in positive_words:
            positive = int.from_bytes(row.tobytes(), "little")
            out.append((positive, mask & ~positive))
        return out

    def _row_unit_cost(self) -> float:
        """Cost of one row-pass element; numpy's is the unit.

        The routing hook subclasses override: the native backend's fused C
        sweep is cheaper per element, so it scales this unit down
        (:data:`~repro.core.kernels.tuning.NATIVE_ROW_COST`) instead of
        duplicating the formula.
        """
        return 1.0

    def _set_major_wins(self, n_selected: int, width: int) -> bool:
        """Cost model: set-major gather vs bit-matrix row pass.

        In numpy row-pass element units: the gather pays the mask unpack
        plus ``member_cost`` per membership of the selected sets; a row
        pass pays :meth:`_row_unit_cost` per (candidate, nonzero mask word)
        element.  Small masks are membership-bound, big masks width-bound —
        route per mask.
        """
        t = self._tuning
        member = (
            self._n_sets / 8
            + n_selected * self._avg_set_size * t.member_cost
        )
        row = (
            width * min(self._n_words, n_selected + 1) * self._row_unit_cost()
        )
        return member < row

    def _route_set_major(self, n_selected: int, width: int) -> bool:
        """:meth:`_set_major_wins` plus the mirror-build amortization guard.

        On tiny collections the one-off CSR build is pure overhead, so the
        set-major route is only taken once the mirror exists or the total
        membership is large enough to amortize it.  Shared by the
        single-mask scan and the sharded per-shard routing so the guard
        lives in exactly one place.
        """
        return self._set_major_wins(n_selected, width) and (
            self._set_indptr is not None
            or self._total_membership >= CSR_MIN_MEMBERSHIP
        )

    def scan_informative(
        self,
        mask: int,
        n_selected: int,
        candidates: Iterable[int] | None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        words = self._words_of(mask)
        if candidates is None:
            # Three strategies, picked per call by the cost model: deep
            # recursion masks are tiny (membership-bound), root masks are
            # huge (width-bound), and on tiny collections the plain
            # member-union gather avoids building the CSR mirror.
            n_rows = len(self._row_eids)
            if self._route_set_major(n_selected, n_rows):
                counts = self._counts_by_members(mask, words)
                keep = (counts > 0) & (counts < n_selected)
                return self._row_eids[keep], counts[keep]
            union_estimate = n_selected * self._avg_set_size
            if union_estimate >= n_rows / 4:
                counts = _popcount_rows(self._matrix & words)
                keep = (counts > 0) & (counts < n_selected)
                return self._row_eids[keep], counts[keep]
            union = self.member_union(mask)
            eids = np.fromiter(sorted(union), dtype=np.int64, count=len(union))
        else:
            eids = np.fromiter((int(e) for e in candidates), dtype=np.int64)
        counts = self.positive_counts(mask, eids)
        keep = (counts > 0) & (counts < n_selected)
        return eids[keep], counts[keep]

    # ------------------------------------------------------------------ #
    # Stacked-mask API (multi-session serving)
    # ------------------------------------------------------------------ #

    def _stack_words(self, masks: Sequence[int]) -> "np.ndarray":
        """Pack many sub-collection masks into a (n_masks, n_words) matrix."""
        words = np.empty((len(masks), self._n_words), dtype=np.uint64)
        for row, mask in enumerate(masks):
            words[row] = self._words_of(mask)
        return words

    def _ensure_set_rows(self) -> None:
        """Build the set-major CSR mirror (member row indices per set).

        Built from the kernel's own sets: ``indptr`` from the set lengths,
        the flat rows from one ``searchsorted`` of every member id into the
        sorted row frame.  Time and memory track the total membership, not
        ``n_entities * n_sets``.  Member order inside a set is the
        frozenset's; :meth:`_counts_by_members` only bincounts, so it does
        not matter.
        """
        if self._set_indptr is not None:
            return
        sets = self._sets
        indptr = np.zeros(len(sets) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, sets), dtype=np.int64, count=len(sets)),
            out=indptr[1:],
        )
        members = np.fromiter(
            chain.from_iterable(sets), dtype=np.int64, count=int(indptr[-1])
        )
        self._set_flat_rows = np.searchsorted(self._row_eids, members)
        self._set_indptr = indptr

    def _counts_by_members(self, mask: int, words_row: "np.ndarray") -> "np.ndarray":
        """Per-entity positive counts of ``mask`` via a set-major gather.

        Cost is O(n_sets / 8) to unpack the mask plus O(total membership of
        the selected sets) for the gather+bincount — for sub-collections of
        few sets this is far below any bit-matrix pass, whose cost stays
        O(width) per entity regardless of how small the mask is.
        """
        self._ensure_set_rows()
        bits = np.unpackbits(
            words_row.view(np.uint8), bitorder="little"
        )[: self._n_sets]
        sets = np.flatnonzero(bits)
        indptr = self._set_indptr
        starts = indptr[sets]
        lens = indptr[sets + 1] - starts
        total = int(lens.sum())
        if total == 0:
            return np.zeros(len(self._row_eids), dtype=np.int64)
        offsets = np.zeros(len(lens), dtype=np.int64)
        np.cumsum(lens[:-1], out=offsets[1:])
        gather = np.arange(total, dtype=np.int64) + np.repeat(
            starts - offsets, lens
        )
        rows = self._set_flat_rows[gather]
        return np.bincount(rows, minlength=len(self._row_eids))

    def scan_informative_many(
        self,
        masks: Sequence[int],
        ns: Sequence[int],
        candidates_list: "Sequence[Iterable[int] | None] | None" = None,
    ) -> "list[tuple[np.ndarray, np.ndarray]]":
        if not masks:
            return []
        cands = candidates_list or [None] * len(masks)
        results: list = [None] * len(masks)
        full_rows: list[int] = []
        restricted: list[int] = []
        set_major: list[int] = []
        n_entities = len(self._row_eids)
        for i in range(len(masks)):
            cand = cands[i]
            width = (
                len(cand)
                if cand is not None and hasattr(cand, "__len__")
                else n_entities
            )
            if self._set_major_wins(ns[i], width):
                set_major.append(i)
            elif cand is not None:
                restricted.append(i)
            else:
                full_rows.append(i)
        for i in set_major:
            counts = self._counts_by_members(
                masks[i], self._words_of(masks[i])
            )
            keep = (counts > 0) & (counts < ns[i])
            results[i] = (self._row_eids[keep], counts[keep])
        if full_rows:
            self._scan_full_stacked(masks, ns, full_rows, results)
        if restricted:
            self._scan_restricted_stacked(masks, ns, cands, restricted, results)
        return results

    def _scan_full_stacked(
        self,
        masks: Sequence[int],
        ns: Sequence[int],
        rows: list[int],
        results: list,
    ) -> None:
        """Full-entity scans of many masks via chunked broadcast popcount.

        One ``(n_entities, chunk, n_words)`` AND+popcount per chunk answers
        ``chunk`` sessions at once; the chunk size keeps the temporary
        under :data:`_STACKED_SCAN_BUDGET`.
        """
        words = self._stack_words([masks[i] for i in rows])
        per_mask = len(self._row_eids) * self._n_words * 8
        chunk = max(1, _STACKED_SCAN_BUDGET // max(per_mask, 1))
        for start in range(0, len(rows), chunk):
            block = words[start : start + chunk]  # (c, W)
            # (E, c): counts of every entity against every mask of the block
            counts = _popcount_rows(
                self._matrix[:, None, :] & block[None, :, :]
            )
            for j in range(block.shape[0]):
                i = rows[start + j]
                col = counts[:, j]
                keep = (col > 0) & (col < ns[i])
                results[i] = (self._row_eids[keep], col[keep])

    def _scan_restricted_stacked(
        self,
        masks: Sequence[int],
        ns: Sequence[int],
        cands: Sequence,
        rows: list[int],
        results: list,
    ) -> None:
        """Candidate-restricted scans of many masks, word-sharded per mask.

        Deep session masks select few sets, so their packed word vector is
        mostly zero: gathering only the *nonzero words* of each mask bounds
        the AND+popcount at ``n_candidates x min(n_words, popcount words)``
        instead of a full-width pass — the work shrinks with the session
        instead of staying O(collection width).
        """
        empty = np.empty(0, dtype=np.int64)
        for i in rows:
            cand = cands[i]
            if isinstance(cand, np.ndarray):
                eids = cand.astype(np.int64, copy=False)
            else:
                eids = np.fromiter((int(e) for e in cand), dtype=np.int64)
            if len(eids) == 0:
                results[i] = (empty, empty)
                continue
            idx, known = self._rows_for(eids)
            words_row = self._words_of(masks[i])
            counts = np.zeros(len(eids), dtype=np.int64)
            if known.any():
                rows_idx = idx if known.all() else idx[known]
                nz = np.flatnonzero(words_row)
                if len(nz) * 2 < self._n_words:
                    sub = self._matrix[np.ix_(rows_idx, nz)] & words_row[nz]
                else:
                    sub = self._matrix[rows_idx] & words_row
                if known.all():
                    counts = _popcount_rows(sub)
                else:
                    counts[known] = _popcount_rows(sub)
            keep = (counts > 0) & (counts < ns[i])
            results[i] = (eids[keep], counts[keep])

    def positive_counts_many(
        self, masks: Sequence[int], eids: Iterable[int]
    ) -> "list[np.ndarray]":
        if not masks:
            return []
        idx, known = self._rows_for(eids)
        words = self._stack_words(masks)  # (S, W)
        counts = np.zeros((len(masks), len(idx)), dtype=np.int64)
        if known.any():
            rows = self._matrix[idx[known]]  # (E', W)
            per_mask = rows.shape[0] * self._n_words * 8
            chunk = max(1, _STACKED_SCAN_BUDGET // max(per_mask, 1))
            for start in range(0, len(masks), chunk):
                block = words[start : start + chunk]
                counts[start : start + chunk][:, known] = _popcount_rows(
                    block[:, None, :] & rows[None, :, :]
                )
        return list(counts)
