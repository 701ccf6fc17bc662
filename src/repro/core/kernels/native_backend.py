"""Native backend: the numpy bit-matrix driven by fused C popcount passes.

:class:`NativeKernel` keeps everything about the numpy backend — the packed
``uint64`` bit-matrix, the set-major CSR mirror, the per-mask routing — and
replaces only the row-pass hot loops with the compiled primitives of
:mod:`repro.core.kernels._native`: one fused AND+popcount+filter sweep per
call instead of numpy's three-ufunc pipeline with its two temporaries.  The
C passes release the GIL, so a :class:`~repro.core.kernels.sharded.ShardedKernel`
with native sub-kernels genuinely runs its column shards in parallel on a
thread pool.

The backend is gated exactly like numpy: ``SetCollection(backend="native")``
or ``REPRO_BACKEND=native`` requests it explicitly, ``auto`` prefers it
whenever the compiled extension imports, and a missing extension degrades
to numpy with a one-time :class:`~repro.core.kernels.NativeFallbackWarning`
(see :func:`repro.core.kernels.resolve_backend_name`).  Parity is the
contract: every result is bit-identical to the bigint/numpy backends,
enforced by ``tests/test_parity_fuzz.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ._native import HAS_NATIVE_EXT, ext as _ext
from .numpy_backend import _STACKED_SCAN_BUDGET, HAS_NUMPY, NumpyKernel
from .tuning import NATIVE_ROW_COST

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]

#: The native backend needs both the compiled extension (the C loops) and
#: numpy (the matrix container and the CSR gather path it inherits).
HAS_NATIVE = HAS_NATIVE_EXT and HAS_NUMPY


class NativeKernel(NumpyKernel):
    """Entity statistics via fused C popcount passes over the bit-matrix."""

    name = "native"

    def __init__(
        self,
        sets: Sequence[frozenset[int]],
        entity_masks: dict[int, int],
        n_sets: int,
    ) -> None:
        if not HAS_NATIVE:  # pragma: no cover - guarded by resolve_backend_name
            raise RuntimeError(
                "NativeKernel requires the compiled _nativeext module "
                "(python setup.py build_ext --inplace) and numpy"
            )
        super().__init__(sets, entity_masks, n_sets)

    # ------------------------------------------------------------------ #
    # Routing: same cost model, native row-pass unit cost
    # ------------------------------------------------------------------ #

    def _row_unit_cost(self) -> float:
        """Numpy's cost model with the *native* row unit cost.

        The fused C pass moves the gather-vs-rows crossover: rows are
        cheaper per element, so the set-major CSR route only wins on even
        smaller masks than under numpy.  Routing still never changes
        results, only which exact path produces them.
        """
        return NATIVE_ROW_COST

    # ------------------------------------------------------------------ #
    # EntityStatsKernel API (row passes replaced by C)
    # ------------------------------------------------------------------ #

    def positive_counts(self, mask: int, eids: Iterable[int]) -> "np.ndarray":
        idx, _known = self._rows_for(eids)
        out = np.empty(len(idx), dtype=np.int64)
        if len(idx):
            _ext.popcount_rows(
                self._matrix, self._n_words, idx, self._words_of(mask), out
            )
        return out

    def partition_many(
        self, mask: int, eids: Iterable[int]
    ) -> list[tuple[int, int]]:
        idx, _known = self._rows_for(eids)
        positive_words = np.empty((len(idx), self._n_words), dtype=np.uint64)
        if len(idx):
            _ext.and_rows(
                self._matrix,
                self._n_words,
                idx,
                self._words_of(mask),
                positive_words,
            )
        out = []
        for row in positive_words:
            positive = int.from_bytes(row.tobytes(), "little")
            out.append((positive, mask & ~positive))
        return out

    def scan_informative(
        self,
        mask: int,
        n_selected: int,
        candidates: Iterable[int] | None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        if candidates is None:
            n_rows = len(self._row_eids)
            if self._route_set_major(n_selected, n_rows):
                counts = self._counts_by_members(
                    mask, self._words_of(mask)
                )
                keep = (counts > 0) & (counts < n_selected)
                return self._row_eids[keep], counts[keep]
            # The fused C sweep filters while it counts, so unlike the
            # numpy backend there is no cheaper member-union route to
            # detour through for mid-size masks.
            out_rows = np.empty(n_rows, dtype=np.int64)
            out_counts = np.empty(n_rows, dtype=np.int64)
            kept = _ext.scan_informative(
                self._matrix,
                self._n_words,
                self._words_of(mask),
                n_selected,
                out_rows,
                out_counts,
            )
            return (
                self._row_eids[out_rows[:kept]],
                out_counts[:kept].copy(),
            )
        eids = np.fromiter((int(e) for e in candidates), dtype=np.int64)
        counts = self.positive_counts(mask, eids)
        keep = (counts > 0) & (counts < n_selected)
        return eids[keep], counts[keep]

    # ------------------------------------------------------------------ #
    # Stacked-mask API
    # ------------------------------------------------------------------ #

    def _scan_full_stacked(
        self,
        masks: Sequence[int],
        ns: Sequence[int],
        rows: list[int],
        results: list,
    ) -> None:
        """Stacked full scans in one GIL-released C call per chunk.

        Chunking bounds the kept-pairs scratch at the same byte budget the
        numpy backend uses for its broadcast temporary; within a chunk the
        C loop runs every mask back to back without touching Python.
        """
        n_rows = len(self._row_eids)
        per_mask = max(n_rows * 16, 1)  # out_rows + out_counts, int64 each
        chunk = max(1, _STACKED_SCAN_BUDGET // per_mask)
        for start in range(0, len(rows), chunk):
            block = rows[start : start + chunk]
            words = self._stack_words([masks[i] for i in block])
            ns_arr = np.fromiter(
                (ns[i] for i in block), dtype=np.int64, count=len(block)
            )
            out_rows = np.empty(len(block) * n_rows, dtype=np.int64)
            out_counts = np.empty(len(block) * n_rows, dtype=np.int64)
            indptr = np.empty(len(block) + 1, dtype=np.int64)
            _ext.scan_informative_many(
                self._matrix,
                self._n_words,
                words,
                ns_arr,
                out_rows,
                out_counts,
                indptr,
            )
            for j, i in enumerate(block):
                lo, hi = int(indptr[j]), int(indptr[j + 1])
                # copies: results outlive the (chunk x n_rows) scratch
                results[i] = (
                    self._row_eids[out_rows[lo:hi]],
                    out_counts[lo:hi].copy(),
                )

    def _scan_restricted_stacked(
        self,
        masks: Sequence[int],
        ns: Sequence[int],
        cands: Sequence,
        rows: list[int],
        results: list,
    ) -> None:
        """Candidate-restricted scans; the C pass skips zero mask words.

        The numpy backend gathers the nonzero words into a narrow
        sub-matrix first; the C primitive gets the same effect by testing
        each mask word once per mask, so no gather copy is needed.
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
            counts = self.positive_counts(masks[i], eids)
            keep = (counts > 0) & (counts < ns[i])
            results[i] = (eids[keep], counts[keep])

    def positive_counts_many(
        self, masks: Sequence[int], eids: Iterable[int]
    ) -> "list[np.ndarray]":
        if not masks:
            return []
        idx, _known = self._rows_for(
            eids if hasattr(eids, "__len__") else list(eids)
        )
        counts = np.zeros((len(masks), len(idx)), dtype=np.int64)
        if len(idx):
            _ext.popcount_rows_many(
                self._matrix,
                self._n_words,
                idx,
                self._stack_words(masks),
                counts,
            )
        return list(counts)
