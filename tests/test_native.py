"""Gating, fallback and primitive-level tests for the native backend.

Parity of the native kernel against bigint/numpy is carried by the shared
harnesses (``test_parity_fuzz.py``, ``test_kernels.py``, the golden engine
transcripts); this file covers what is *specific* to the compiled
extension: backend resolution and auto-preference, the one-time fallback
warning when the extension is absent, sharded composition, and the C
primitives' buffer validation.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core import kernels
from repro.core.collection import SetCollection
from repro.core.kernels import (
    HAS_NATIVE,
    HAS_NUMPY,
    NativeFallbackWarning,
    available_backends,
    resolve_backend_name,
)
from repro.core.kernels import native_backend

from conftest import FIG1_SETS

needs_native = pytest.mark.skipif(
    not HAS_NATIVE, reason="native extension not built"
)

RAW = [[0, 1, 2], [1, 2, 3], [2, 3, 4], [0, 4], [5]]


@pytest.fixture
def no_native(monkeypatch):
    """Simulate an environment where the extension failed to import."""
    monkeypatch.setattr(native_backend, "HAS_NATIVE", False)
    monkeypatch.setattr(kernels, "_native_fallback_warned", False)


class TestGating:
    @needs_native
    def test_explicit_native(self):
        coll = SetCollection(RAW, backend="native")
        assert coll.backend == "native"

    @needs_native
    def test_native_listed_as_available(self):
        assert "native" in available_backends()

    @needs_native
    def test_env_var_forces_native(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "native")
        assert SetCollection(RAW).backend == "native"

    @needs_native
    def test_auto_prefers_native_on_large_collections(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend_name("auto") == "native"

    @needs_native
    def test_auto_small_collection_still_prefers_bigint(self, monkeypatch):
        # The auto crossover applies to native exactly as it does to
        # numpy: tiny collections stay on the reference backend.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        coll = SetCollection.from_named_sets(FIG1_SETS)
        assert coll.backend == "bigint"

    @needs_native
    def test_sharded_native(self):
        coll = SetCollection(RAW, backend="native", shards=2)
        assert coll.backend == "native[x2]"
        assert coll.shards == 2
        ref = SetCollection(RAW, backend="bigint")
        assert coll.informative_entities(
            coll.full_mask
        ) == ref.informative_entities(ref.full_mask)

    @needs_native
    def test_reshard_keeps_native_base(self):
        coll = SetCollection(RAW, backend="native")
        coll.reshard(2)
        assert coll.backend == "native[x2]"
        coll.reshard(None)
        assert coll.backend == "native"


class TestFallbackWarning:
    def test_fallback_warns_exactly_once(self, no_native):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = SetCollection(RAW, backend="native")
            second = SetCollection(RAW, backend="native")
        expected = "numpy" if HAS_NUMPY else "bigint"
        assert first.backend == expected
        assert second.backend == expected
        fallback = [
            w for w in caught if issubclass(w.category, NativeFallbackWarning)
        ]
        assert len(fallback) == 1
        assert "falling back" in str(fallback[0].message)

    def test_fallback_result_parity(self, no_native):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NativeFallbackWarning)
            coll = SetCollection(RAW, backend="native")
        ref = SetCollection(RAW, backend="bigint")
        assert coll.informative_entities(
            coll.full_mask
        ) == ref.informative_entities(ref.full_mask)

    def test_auto_without_extension_never_warns(self, no_native, monkeypatch):
        # A genuine auto request only: $REPRO_BACKEND=native (as the CI
        # native leg sets) is an *explicit* request and is supposed to warn.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resolve_backend_name("auto")
            SetCollection(RAW)
        assert not [
            w for w in caught if issubclass(w.category, NativeFallbackWarning)
        ]

    @pytest.mark.skipif(
        HAS_NATIVE, reason="only meaningful when the extension is absent"
    )
    def test_environment_without_extension_warns_once(self):  # pragma: no cover
        # The CI no-compiler job runs this for real: a genuinely missing
        # extension (not a monkeypatched flag) must degrade with exactly
        # one warning across any number of collections.
        kernels._native_fallback_warned = False
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            SetCollection(RAW, backend="native")
            SetCollection(RAW, backend="native")
        fallback = [
            w for w in caught if issubclass(w.category, NativeFallbackWarning)
        ]
        assert len(fallback) == 1


@needs_native
class TestPrimitiveValidation:
    """The C entry points must reject malformed buffers, never segfault."""

    def setup_method(self):
        import numpy as np

        from repro.core.kernels._native import ext

        self.np = np
        self.ext = ext
        rng = np.random.default_rng(3)
        self.n_words = 2
        self.matrix = rng.integers(
            0, 2**63, size=(5, self.n_words), dtype=np.uint64
        )
        self.mask = rng.integers(0, 2**63, size=self.n_words, dtype=np.uint64)
        self.rows = np.arange(5, dtype=np.int64)

    def test_mask_length_mismatch(self):
        out = self.np.empty(5, dtype=self.np.int64)
        with pytest.raises(ValueError, match="mask_words"):
            self.ext.popcount_rows(
                self.matrix, self.n_words, self.rows, self.mask[:1], out
            )

    def test_out_length_mismatch(self):
        out = self.np.empty(3, dtype=self.np.int64)
        with pytest.raises(ValueError, match="out"):
            self.ext.popcount_rows(
                self.matrix, self.n_words, self.rows, self.mask, out
            )

    def test_matrix_not_multiple_of_words(self):
        out = self.np.empty(5, dtype=self.np.int64)
        with pytest.raises(ValueError, match="n_words"):
            self.ext.popcount_rows(
                self.matrix.reshape(-1)[:-1], self.n_words, self.rows,
                self.mask, out,
            )

    def test_readonly_out_rejected(self):
        out = self.np.empty(5, dtype=self.np.int64)
        out.flags.writeable = False
        with pytest.raises((BufferError, TypeError, ValueError)):
            self.ext.popcount_rows(
                self.matrix, self.n_words, self.rows, self.mask, out
            )

    def test_nonpositive_n_words_rejected(self):
        out = self.np.empty(5, dtype=self.np.int64)
        with pytest.raises(ValueError, match="n_words"):
            self.ext.popcount_rows(
                self.matrix, 0, self.rows, self.mask, out
            )

    def test_out_of_range_rows_count_zero(self):
        # Unknown entity ids resolve to row -1; anything out of range must
        # count 0 rather than read out of bounds.
        rows = self.np.array([-1, 99, 0], dtype=self.np.int64)
        out = self.np.empty(3, dtype=self.np.int64)
        self.ext.popcount_rows(
            self.matrix, self.n_words, rows, self.mask, out
        )
        want = int(
            self.np.bitwise_count(self.matrix[0] & self.mask).sum()
        )
        assert out.tolist() == [0, 0, want]

    # -- counts_by_members: the set-major gather over the CSR mirror ---- #
    # Three sets over four rows: {0, 1}, {1, 2}, {3}.

    def _csr(self):
        np = self.np
        return (
            np.array([0b111], dtype=np.uint64),
            np.array([0, 2, 4, 5], dtype=np.int64),
            np.array([0, 1, 1, 2, 3], dtype=np.int64),
            np.empty(4, dtype=np.int64),
        )

    def test_gather_counts(self):
        mask, indptr, flat, out = self._csr()
        out.fill(-7)  # the pass must overwrite every row
        self.ext.counts_by_members(mask, indptr, flat, out)
        assert out.tolist() == [1, 2, 1, 1]
        self.ext.counts_by_members(
            self.np.array([0b010 | 1 << 40], dtype=self.np.uint64),
            indptr, flat, out,
        )  # bits at or above n_sets select nothing
        assert out.tolist() == [0, 1, 1, 0]

    def test_gather_mask_length_mismatch(self):
        mask, indptr, flat, out = self._csr()
        with pytest.raises(ValueError, match="mask_words"):
            self.ext.counts_by_members(
                self.np.zeros(2, dtype=self.np.uint64), indptr, flat, out
            )

    def test_gather_empty_indptr(self):
        mask, _indptr, flat, out = self._csr()
        with pytest.raises(ValueError, match="indptr"):
            self.ext.counts_by_members(
                mask, self.np.empty(0, dtype=self.np.int64), flat, out
            )

    @pytest.mark.parametrize("arg", [0, 1, 2, 3])
    def test_gather_length_not_multiple_of_8(self, arg):
        args = list(self._csr())
        args[arg] = bytearray(bytes(args[arg])[:-1])
        with pytest.raises(ValueError, match="multiple of 8"):
            self.ext.counts_by_members(*args)

    def test_gather_decreasing_indptr(self):
        mask, _indptr, flat, out = self._csr()
        indptr = self.np.array([0, 2, 1, 5], dtype=self.np.int64)
        with pytest.raises(ValueError, match="indptr"):
            self.ext.counts_by_members(mask, indptr, flat, out)

    @pytest.mark.parametrize(
        "indptr", [[0, 2, 4, 6], [-1, 2, 4, 5], [0, 2, 4, 1 << 62]]
    )
    def test_gather_indptr_outside_flat_rows(self, indptr):
        mask, _indptr, flat, out = self._csr()
        indptr = self.np.array(indptr, dtype=self.np.int64)
        with pytest.raises(ValueError, match="indptr"):
            self.ext.counts_by_members(mask, indptr, flat, out)

    @pytest.mark.parametrize("row", [-1, 4, 1 << 40, -(1 << 62)])
    def test_gather_row_out_of_range(self, row):
        mask, indptr, flat, out = self._csr()
        flat[3] = row
        with pytest.raises(ValueError, match="flat_rows"):
            self.ext.counts_by_members(mask, indptr, flat, out)

    def test_gather_readonly_out_rejected(self):
        mask, indptr, flat, out = self._csr()
        out.flags.writeable = False
        with pytest.raises((BufferError, TypeError, ValueError)):
            self.ext.counts_by_members(mask, indptr, flat, out)
        with pytest.raises((BufferError, TypeError, ValueError)):
            self.ext.counts_by_members(mask, indptr, flat, bytes(32))

    def test_gather_threads_share_no_scratch(self):
        # GIL released, no shared state: concurrent calls on one mirror
        # each see exactly their own mask's counts.
        from concurrent.futures import ThreadPoolExecutor

        np = self.np
        rng = np.random.default_rng(5)
        n_sets, n_rows = 300, 64
        sizes = rng.integers(0, 20, size=n_sets)
        indptr = np.zeros(n_sets + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        flat = rng.integers(0, n_rows, size=int(indptr[-1]), dtype=np.int64)
        masks = rng.integers(0, 2**63, size=(16, 5), dtype=np.uint64)

        def gather(words):
            out = np.empty(n_rows, dtype=np.int64)
            self.ext.counts_by_members(words, indptr, flat, out)
            return out

        def reference(words):
            bits = np.unpackbits(words.view(np.uint8), bitorder="little")
            sets = np.flatnonzero(bits[:n_sets])
            rows = [flat[indptr[s]:indptr[s + 1]] for s in sets]
            return np.bincount(np.concatenate(rows), minlength=n_rows)

        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(gather, list(masks) * 8))
        for words, counts in zip(list(masks) * 8, got):
            assert np.array_equal(counts, reference(words))


@needs_native
class TestSimdDispatch:
    """Runtime SIMD tier selection: introspection, pinning, env, fallback."""

    def setup_method(self):
        from repro.core.kernels._native import ext

        self.ext = ext
        self.auto = ext.simd_level()

    def teardown_method(self):
        self.ext.set_simd_level(self.auto)

    def test_active_tier_is_listed_available(self):
        tiers = self.ext.available_simd_levels()
        assert "scalar" in tiers
        assert self.ext.simd_level() in tiers

    def test_pin_roundtrip_every_available_tier(self):
        for tier in self.ext.available_simd_levels():
            assert self.ext.set_simd_level(tier) == tier
            assert self.ext.simd_level() == tier

    def test_unavailable_tier_raises(self):
        with pytest.raises(ValueError, match="is not available"):
            self.ext.set_simd_level("avx1024")
        assert self.ext.simd_level() == self.auto

    def test_tiers_agree_on_scan(self):
        # The deep parity sweep is in test_parity_fuzz.py; this is the
        # smoke check that pinning a tier changes throughput only.
        coll = SetCollection(RAW, backend="native")
        ref = coll.informative_entities(coll.full_mask)
        for tier in self.ext.available_simd_levels():
            self.ext.set_simd_level(tier)
            fresh = SetCollection(RAW, backend="native")
            assert fresh.informative_entities(fresh.full_mask) == ref

    def test_apply_simd_override_none_keeps_selection(self):
        from repro.core.kernels import _native

        assert _native.apply_simd_override(None) == self.auto
        assert _native.apply_simd_override("") == self.auto
        assert self.ext.simd_level() == self.auto

    def test_apply_simd_override_pins(self):
        from repro.core.kernels import _native

        assert _native.apply_simd_override("scalar") == "scalar"
        assert self.ext.simd_level() == "scalar"

    def test_bad_override_warns_once_and_keeps_tier(self, monkeypatch):
        from repro.core.kernels import _native

        monkeypatch.setattr(_native, "_simd_fallback_warned", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _native.apply_simd_override("bogus") == self.auto
            assert _native.apply_simd_override("bogus") == self.auto
        fallback = [
            w
            for w in caught
            if issubclass(w.category, kernels.SimdFallbackWarning)
        ]
        assert len(fallback) == 1
        assert "bogus" in str(fallback[0].message)
        assert self.ext.simd_level() == self.auto

    def test_env_var_pins_tier_at_import(self):
        # A real subprocess: $REPRO_SIMD must take effect at import time.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, REPRO_SIMD="scalar", PYTHONPATH=src)
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.core.kernels._native import ext; "
                "print(ext.simd_level())",
            ],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "scalar"
